package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"csdm/internal/core"
	"csdm/internal/pattern"
	"csdm/internal/poi"
)

// testEnv is shared read-only across tests (Setup is deterministic).
var (
	envOnce sync.Once
	env     *Env
)

func testSetup(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		env = Setup(Scale{Seed: 1, NumPOIs: 3000, NumPassengers: 600, Days: 14})
	})
	return env
}

// testParams scales σ to the small test workload.
func testParams() pattern.Params {
	p := MiningParams()
	p.Sigma = 20
	return p
}

func TestSetupDeterministic(t *testing.T) {
	a := Setup(Scale{Seed: 7, NumPOIs: 500, NumPassengers: 50, Days: 2})
	b := Setup(Scale{Seed: 7, NumPOIs: 500, NumPassengers: 50, Days: 2})
	if len(a.City.POIs) != len(b.City.POIs) || len(a.Workload.Journeys) != len(b.Workload.Journeys) {
		t.Fatal("equal scales should produce equal environments")
	}
}

// TestStageTimeoutFailsFigures: a pipeline whose stages cannot meet
// their deadline makes the mining figures return the stage error
// instead of empty results.
func TestStageTimeoutFailsFigures(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StageTimeout = time.Nanosecond
	e := SetupConfig(Scale{Seed: 1, NumPOIs: 300, NumPassengers: 20, Days: 1}, cfg)
	if _, err := e.Fig9(testParams()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Fig9: err = %v, want a stage deadline error", err)
	}
	if _, err := e.Fig11(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Fig11: err = %v, want a stage deadline error", err)
	}
}

func TestTable1Shape(t *testing.T) {
	e := testSetup(t)
	res := e.Table1()
	if len(res) != 2 {
		t.Fatalf("profiles = %d", len(res))
	}
	ny, tk := res[0], res[1]
	if tk.StationShare <= ny.StationShare {
		t.Errorf("Tokyo station share %.3f should exceed NY %.3f", tk.StationShare, ny.StationShare)
	}
	if ny.ResidentShare <= tk.ResidentShare {
		t.Errorf("NY residence share %.3f should exceed Tokyo %.3f", ny.ResidentShare, tk.ResidentShare)
	}
	for _, r := range res {
		if r.MedicalShare > 0.01 {
			t.Errorf("%s medical share %.3f should be suppressed", r.Profile, r.MedicalShare)
		}
		if len(r.Top) == 0 || len(r.Top) > 10 {
			t.Errorf("%s top topics = %d", r.Profile, len(r.Top))
		}
	}
}

func TestTable3SharesMatchPaper(t *testing.T) {
	e := testSetup(t)
	rows := e.Table3()
	if len(rows) != poi.NumMajors {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Percentage-r.PaperShare) > 0.03 {
			t.Errorf("%v share %.3f deviates from paper %.3f", r.Category, r.Percentage, r.PaperShare)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if r.Units == 0 {
		t.Fatal("no units")
	}
	if r.Coverage <= 0.9 {
		t.Errorf("coverage = %.3f (KeepSingletons should push it to ~1)", r.Coverage)
	}
	if r.MeanPurity < 0.8 {
		t.Errorf("purity = %.3f", r.MeanPurity)
	}
	if !strings.Contains(r.Map, "\n") {
		t.Error("map not rendered")
	}
}

func TestFig8Shape(t *testing.T) {
	e := testSetup(t)
	r := e.Fig8()
	if r.StayPoints != 2*r.Journeys {
		t.Fatalf("staypoints %d != 2×journeys %d", r.StayPoints, r.Journeys)
	}
	if r.MeanTripMin < 5 || r.MeanTripMin > 45 {
		t.Errorf("mean trip %.1f min implausible", r.MeanTripMin)
	}
}

func TestFig9Shape(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig9(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 6 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	// Histogram totals match pattern counts, and CSD-PM is denser than
	// ROI-PM on average.
	for name, h := range r.Curves {
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		if total != r.Summaries[name].NumPatterns {
			t.Errorf("%s histogram total %d != #patterns %d", name, total, r.Summaries[name].NumPatterns)
		}
	}
	if r.Summaries["CSD-PM"].MeanSparsity >= r.Summaries["ROI-PM"].MeanSparsity {
		t.Errorf("CSD-PM sparsity %.1f should be below ROI-PM %.1f",
			r.Summaries["CSD-PM"].MeanSparsity, r.Summaries["ROI-PM"].MeanSparsity)
	}
}

func TestFig10Shape(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig10(testParams())
	if err != nil {
		t.Fatal(err)
	}
	csdpm := r.Boxes["CSD-PM"]
	roipm := r.Boxes["ROI-PM"]
	if csdpm.Mean < 0.95 {
		t.Errorf("CSD-PM consistency %.3f, paper reports ≥0.99", csdpm.Mean)
	}
	// The separation grows with workload size; at test scale require
	// only that CSD-PM is not meaningfully below ROI-PM.
	if csdpm.Mean < roipm.Mean-0.005 {
		t.Errorf("CSD-PM consistency %.3f below ROI-PM %.3f", csdpm.Mean, roipm.Mean)
	}
	// Box ordering invariants.
	for name, b := range r.Boxes {
		if b.N > 0 && !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			t.Errorf("%s box not ordered: %+v", name, b)
		}
	}
}

// TestSweepsMonotoneTrends: raising the support threshold σ (Fig. 11)
// or the density threshold ρ (Fig. 12) only filters candidates, so for
// each approach neither the pattern count nor the coverage may rise
// along the sweep.
func TestSweepsMonotoneTrends(t *testing.T) {
	e := testSetup(t)
	for _, fig := range []struct {
		name  string
		sweep func() (SweepResult, error)
	}{
		{"Fig11", e.Fig11},
		{"Fig12", e.Fig12},
	} {
		r, err := fig.sweep()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 4*6 {
			t.Fatalf("%s: sweep points = %d", fig.name, len(r.Points))
		}
		byApproach := map[string][]SweepPoint{}
		for _, p := range r.Points {
			byApproach[p.Approach] = append(byApproach[p.Approach], p)
		}
		for name, pts := range byApproach {
			for i := 1; i < len(pts); i++ {
				prev, cur := pts[i-1].Summary, pts[i].Summary
				if cur.NumPatterns > prev.NumPatterns || cur.Coverage > prev.Coverage {
					t.Errorf("%s %s: #patterns %d→%d, coverage %d→%d as %s grew from %s to %s",
						fig.name, name, prev.NumPatterns, cur.NumPatterns, prev.Coverage, cur.Coverage,
						r.Parameter, pts[i-1].Value, pts[i].Value)
				}
			}
		}
	}
}

func TestFig13PlateauBeyond30Minutes(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// The paper observes almost no fluctuation for δ_t ≥ 30 min because
	// most trips are shorter; check CSD-PM's #patterns stabilizes.
	var vals []int
	for _, p := range r.Points {
		if p.Approach == "CSD-PM" {
			vals = append(vals, p.Summary.NumPatterns)
		}
	}
	if len(vals) != 4 {
		t.Fatalf("CSD-PM sweep points = %d", len(vals))
	}
	// The 15-minute constraint cuts below the mean trip duration, so it
	// must filter out most patterns…
	if vals[3] == 0 || float64(vals[0])/float64(vals[3]) > 0.5 {
		t.Errorf("no 15-minute cliff: #patterns %v", vals)
	}
	// …while the curve levels off toward the top of the sweep.
	lo, hi := vals[2], vals[3]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 0 && float64(lo)/float64(hi) < 0.8 {
		t.Errorf("no plateau at the top of the sweep: #patterns %v", vals)
	}
}

func TestFig14WeekdayRegularity(t *testing.T) {
	e := testSetup(t)
	res, err := e.Fig14(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("buckets = %d", len(res))
	}
	weekday, weekend := 0, 0
	for _, r := range res {
		if int(r.Bucket) < 3 {
			weekday += r.NumPatterns
		} else {
			weekend += r.NumPatterns
		}
	}
	if weekday <= weekend {
		t.Errorf("weekday patterns (%d) should exceed weekend (%d)", weekday, weekend)
	}
	// Weekday morning should surface Residence → … transitions.
	morning := res[0]
	found := false
	for _, tc := range morning.Top {
		if strings.HasPrefix(tc.Transition, "Residence") {
			found = true
		}
	}
	if !found {
		t.Error("weekday morning lacks Residence→ transitions")
	}
}

func TestFig14gAirportHotspot(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig14g(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.AirportShare < 0.02 {
		t.Errorf("airport share %.3f too small", r.AirportShare)
	}
	if r.AirportPatterns == 0 {
		t.Error("no airport patterns")
	}
}

func TestFig14hHospitalVisibleInGPSOnly(t *testing.T) {
	e := testSetup(t)
	r, err := e.Fig14h(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.HospitalTrips == 0 {
		t.Fatal("no hospital trips generated")
	}
	if r.HospitalPatterns == 0 {
		t.Error("GPS mining should surface hospital patterns")
	}
	if r.CheckinShareNY > 0.01 || r.CheckinShareTK > 0.01 {
		t.Errorf("check-in medical shares %.4f/%.4f should be suppressed",
			r.CheckinShareNY, r.CheckinShareTK)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	e := testSetup(t)
	params := testParams()
	var buf bytes.Buffer
	e.RenderTable1(&buf)
	e.RenderTable3(&buf)
	e.RenderFig8(&buf)
	fig11, err := e.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	RenderSweep(&buf, "Figure 11", fig11)
	if _, err := e.RenderFig6(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFig9(&buf, params); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFig10(&buf, params); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFig14(&buf, params); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFig14g(&buf, params); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFig14h(&buf, params); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 3", "Figure 6", "Figure 8", "Figure 9",
		"Figure 10", "Figure 11", "Figure 14", "airport", "hospital",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
