package core

import (
	"context"
	"testing"
	"time"

	"csdm/internal/csd"
	"csdm/internal/metrics"
	"csdm/internal/pattern"
	"csdm/internal/recognize"
	"csdm/internal/stage"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// buildPipeline generates a small synthetic city and wraps it in a
// pipeline. Shared across tests (read-only use).
func buildPipeline(t testing.TB) *Pipeline {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 4000
	cfg.NumPassengers = 600
	cfg.Days = 7
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	return NewPipeline(city.POIs, w.Journeys, DefaultConfig())
}

// testMiningParams scales σ to the small test workload.
func testMiningParams() pattern.Params {
	p := pattern.DefaultParams()
	p.Sigma = 25
	return p
}

// mustDiagram, mustDatabase, mustMine and mustMineAll run a stage on a
// background context and fail the test on its error.
func mustDiagram(t testing.TB, p *Pipeline) *csd.Diagram {
	t.Helper()
	d, err := p.DiagramCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustDatabase(t testing.TB, p *Pipeline, kind RecognizerKind) []trajectory.SemanticTrajectory {
	t.Helper()
	db, err := p.DatabaseCtx(context.Background(), kind)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustMine(t testing.TB, p *Pipeline, a Approach, params pattern.Params) []pattern.Pattern {
	t.Helper()
	ps, err := p.MineCtx(context.Background(), a, params)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// mustMineAll keys each approach's patterns by its paper name.
func mustMineAll(t testing.TB, p *Pipeline, params pattern.Params) map[string][]pattern.Pattern {
	t.Helper()
	res, err := p.MineAllCtx(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]pattern.Pattern, len(res))
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Approach, r.Err)
		}
		out[r.Approach.String()] = r.Patterns
	}
	return out
}

func TestApproachNames(t *testing.T) {
	want := []string{"CSD-PM", "ROI-PM", "CSD-Splitter", "ROI-Splitter", "CSD-SDBSCAN", "ROI-SDBSCAN"}
	got := Approaches()
	if len(got) != len(want) {
		t.Fatalf("approaches = %d", len(got))
	}
	for i, a := range got {
		if a.String() != want[i] {
			t.Errorf("approach %d = %q, want %q", i, a, want[i])
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p := buildPipeline(t)
	params := testMiningParams()

	d := mustDiagram(t, p)
	if len(d.Units) == 0 {
		t.Fatal("no semantic units built")
	}
	roi := recognize.NewROIRecognizerEnv(stage.Background(), Stays(p.Journeys()), p.POIs(), p.cfg.ROI)
	if roi.NumRegions() == 0 {
		t.Fatal("no hot regions detected")
	}
	if len(mustDatabase(t, p, RecCSD)) == 0 || len(mustDatabase(t, p, RecROI)) == 0 {
		t.Fatal("empty annotated databases")
	}

	results := mustMineAll(t, p, params)
	if len(results) != 6 {
		t.Fatalf("results = %d approaches", len(results))
	}
	csdpm := metrics.Summarize(results["CSD-PM"])
	if csdpm.NumPatterns == 0 {
		t.Fatal("CSD-PM found no patterns")
	}
	t.Logf("pipeline %s", p.Describe())
	for name, ps := range results {
		s := metrics.Summarize(ps)
		t.Logf("%-13s #patterns=%3d coverage=%5d ss=%6.1f sc=%.3f",
			name, s.NumPatterns, s.Coverage, s.MeanSparsity, s.MeanConsistency)
	}
}

func TestCSDConsistencyBeatsROI(t *testing.T) {
	// The headline Figure 10 claim: CSD-based approaches keep semantic
	// consistency near 1 while ROI-based ones are lower and wider.
	p := buildPipeline(t)
	params := testMiningParams()
	results := mustMineAll(t, p, params)

	for _, ext := range []string{"PM", "Splitter", "SDBSCAN"} {
		csdRes := metrics.Summarize(results["CSD-"+ext])
		roiRes := metrics.Summarize(results["ROI-"+ext])
		if csdRes.NumPatterns == 0 {
			t.Errorf("CSD-%s found no patterns", ext)
			continue
		}
		// The separation grows with workload size; at test scale require
		// only that CSD is not meaningfully below ROI.
		if roiRes.NumPatterns > 0 && csdRes.MeanConsistency < roiRes.MeanConsistency-0.005 {
			t.Errorf("CSD-%s consistency %.3f < ROI-%s %.3f",
				ext, csdRes.MeanConsistency, ext, roiRes.MeanConsistency)
		}
		if csdRes.MeanConsistency < 0.95 {
			t.Errorf("CSD-%s consistency %.3f, paper reports ≥0.98", ext, csdRes.MeanConsistency)
		}
	}
}

func TestCSDSparsityBeatsROI(t *testing.T) {
	// Figure 9's claim: CSD-based approaches produce denser patterns
	// (lower spatial sparsity) than their ROI counterparts, and ROI
	// exhibits the sparse tail.
	p := buildPipeline(t)
	results := mustMineAll(t, p, testMiningParams())
	for _, ext := range []string{"PM", "Splitter", "SDBSCAN"} {
		csdRes := metrics.Summarize(results["CSD-"+ext])
		roiRes := metrics.Summarize(results["ROI-"+ext])
		if csdRes.NumPatterns == 0 || roiRes.NumPatterns == 0 {
			t.Errorf("%s: no patterns (CSD %d, ROI %d)", ext, csdRes.NumPatterns, roiRes.NumPatterns)
			continue
		}
		if csdRes.MeanSparsity >= roiRes.MeanSparsity {
			t.Errorf("CSD-%s sparsity %.1f should be below ROI-%s %.1f",
				ext, csdRes.MeanSparsity, ext, roiRes.MeanSparsity)
		}
	}
}

func TestSupportThresholdTradeoff(t *testing.T) {
	// Figure 11's trend: raising σ lowers pattern count and coverage.
	p := buildPipeline(t)
	params := testMiningParams()
	low := metrics.Summarize(mustMine(t, p, CSDPM, params))
	params.Sigma *= 3
	high := metrics.Summarize(mustMine(t, p, CSDPM, params))
	if high.NumPatterns > low.NumPatterns {
		t.Errorf("σ↑ should not raise #patterns: %d -> %d", low.NumPatterns, high.NumPatterns)
	}
	if high.Coverage > low.Coverage {
		t.Errorf("σ↑ should not raise coverage: %d -> %d", low.Coverage, high.Coverage)
	}
}

func TestDatabasesAreCached(t *testing.T) {
	p := buildPipeline(t)
	db1 := mustDatabase(t, p, RecCSD)
	db2 := mustDatabase(t, p, RecCSD)
	if &db1[0] != &db2[0] {
		t.Fatal("DatabaseCtx(RecCSD) rebuilt instead of cached")
	}
	d1, d2 := mustDiagram(t, p), mustDiagram(t, p)
	if d1 != d2 {
		t.Fatal("DiagramCtx rebuilt instead of cached")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		t    time.Time
		want TimeBucket
	}{
		{time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC), WeekdayMorning},    // Monday
		{time.Date(2015, 4, 6, 14, 0, 0, 0, time.UTC), WeekdayAfternoon}, // Monday
		{time.Date(2015, 4, 6, 22, 0, 0, 0, time.UTC), WeekdayNight},
		{time.Date(2015, 4, 6, 2, 0, 0, 0, time.UTC), WeekdayNight},       // pre-dawn
		{time.Date(2015, 4, 11, 9, 0, 0, 0, time.UTC), WeekendMorning},    // Saturday
		{time.Date(2015, 4, 12, 15, 0, 0, 0, time.UTC), WeekendAfternoon}, // Sunday
		{time.Date(2015, 4, 11, 19, 0, 0, 0, time.UTC), WeekendNight},
	}
	for _, c := range cases {
		if got := BucketOf(c.t); got != c.want {
			t.Errorf("BucketOf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTimeBucketNames(t *testing.T) {
	if len(TimeBuckets()) != 6 {
		t.Fatal("want 6 buckets")
	}
	if WeekdayMorning.String() != "weekday morning" || WeekendNight.String() != "weekend night" {
		t.Fatal("bucket names wrong")
	}
	if TimeBucket(99).String() != "unknown" {
		t.Fatal("invalid bucket should stringify to unknown")
	}
}

func TestFilterJourneys(t *testing.T) {
	mon8 := time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC)
	sat20 := time.Date(2015, 4, 11, 20, 0, 0, 0, time.UTC)
	js := []trajectory.Journey{
		{PickupTime: mon8},
		{PickupTime: sat20},
		{PickupTime: mon8.Add(time.Hour)},
	}
	if got := FilterJourneys(js, WeekdayMorning); len(got) != 2 {
		t.Fatalf("weekday morning = %d, want 2", len(got))
	}
	if got := FilterJourneys(js, WeekendNight); len(got) != 1 {
		t.Fatalf("weekend night = %d, want 1", len(got))
	}
	if got := FilterJourneys(js, WeekendAfternoon); len(got) != 0 {
		t.Fatalf("weekend afternoon = %d, want 0", len(got))
	}
}
