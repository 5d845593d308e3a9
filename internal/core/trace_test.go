package core

import (
	"strings"
	"testing"

	"csdm/internal/obs"
)

// TestPipelineTrace runs CSD-PM end to end with a trace attached and
// checks that every Figure-2 stage left spans and non-zero counters.
func TestPipelineTrace(t *testing.T) {
	p := buildPipeline(t)
	tr := obs.New()
	p.SetTrace(tr)
	if p.Trace() != tr {
		t.Fatal("Trace() did not return the attached trace")
	}

	ps := mustMine(t, p, CSDPM, testMiningParams())
	if len(ps) == 0 {
		t.Fatal("CSD-PM found no patterns")
	}

	report := tr.Report()
	for _, span := range []string{
		"csd.build", "popularity", "clustering", "purification", "merging",
		"recognize.CSD", "chain", "annotate",
		"extract.CounterpartCluster", "prefixspan", "refine", "closure",
	} {
		if !strings.Contains(report, span) {
			t.Errorf("report missing span %q:\n%s", span, report)
		}
	}
	for _, counter := range []string{
		"csd.clusters.grown",
		"csd.units.final",
		"recognize.CSD.stays.annotated",
		"extract.CounterpartCluster.coarse",
		"extract.CounterpartCluster.candidates",
		"extract.CounterpartCluster.patterns",
	} {
		if tr.Counter(counter) <= 0 {
			t.Errorf("counter %q = %d, want > 0", counter, tr.Counter(counter))
		}
	}
	// The pipeline's synthetic city mixes single- and multi-purpose
	// sites, so purification must have split something.
	if tr.Counter("csd.purify.kl_splits")+tr.Counter("csd.purify.major_splits") == 0 {
		t.Error("no purification splits recorded")
	}
	// Patterns surviving must not exceed candidates generated.
	pfx := "extract.CounterpartCluster"
	if tr.Counter(pfx+".patterns") > tr.Counter(pfx+".candidates") {
		t.Errorf("patterns %d > candidates %d",
			tr.Counter(pfx+".patterns"), tr.Counter(pfx+".candidates"))
	}
}

// TestMineAllTraceConcurrent attaches a trace and runs all six
// approaches concurrently via MineAllCtx — under -race this checks the
// telemetry path's thread safety across extractors.
func TestMineAllTraceConcurrent(t *testing.T) {
	p := buildPipeline(t)
	tr := obs.New()
	p.SetTrace(tr)
	results := mustMineAll(t, p, testMiningParams())
	if len(results) != 6 {
		t.Fatalf("results = %d approaches", len(results))
	}
	for _, name := range []string{"CounterpartCluster", "Splitter", "SDBSCAN"} {
		if tr.Counter("extract."+name+".coarse") <= 0 {
			t.Errorf("extractor %s recorded no coarse patterns", name)
		}
	}
	if tr.Counter("recognize.ROI.stays.annotated")+tr.Counter("recognize.ROI.stays.unknown") == 0 {
		t.Error("ROI recognizer recorded no stays")
	}
}
