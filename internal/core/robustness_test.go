package core

import (
	"testing"

	"csdm/internal/pattern"
	"csdm/internal/synth"
)

// TestPipelineEmptyInputs exercises every stage with degenerate data:
// the pipeline must stay silent, not panic.
func TestPipelineEmptyInputs(t *testing.T) {
	params := pattern.DefaultParams()

	empty := NewPipeline(nil, nil, DefaultConfig())
	if d := mustDiagram(t, empty); len(d.Units) != 0 {
		t.Fatal("units from nothing")
	}
	for _, a := range Approaches() {
		if ps := mustMine(t, empty, a, params); len(ps) != 0 {
			t.Fatalf("%v mined %d patterns from nothing", a, len(ps))
		}
	}
}

func TestPipelinePOIsWithoutJourneys(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 500
	cfg.NumPassengers = 10
	cfg.Days = 1
	city := synth.NewCity(cfg)
	p := NewPipeline(city.POIs, nil, DefaultConfig())
	// The CSD builds (popularity all zero), mining yields nothing.
	d := mustDiagram(t, p)
	for _, pop := range d.Pop {
		if pop != 0 {
			t.Fatal("popularity without stay points")
		}
	}
	if ps := mustMine(t, p, CSDPM, pattern.DefaultParams()); len(ps) != 0 {
		t.Fatal("patterns without journeys")
	}
}

func TestPipelineJourneysWithoutPOIs(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 200 // city needs some POIs to build sites
	cfg.NumPassengers = 50
	cfg.Days = 2
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	p := NewPipeline(nil, w.Journeys, DefaultConfig())
	// Without POIs, no stay can be annotated and no pattern can form.
	for _, st := range mustDatabase(t, p, RecCSD) {
		for _, sp := range st.Stays {
			if !sp.S.IsEmpty() {
				t.Fatal("annotation without POIs")
			}
		}
	}
	if ps := mustMine(t, p, CSDPM, pattern.DefaultParams()); len(ps) != 0 {
		t.Fatal("patterns without POIs")
	}
}

// TestUseDiagramWins confirms a preloaded diagram short-circuits
// construction.
func TestUseDiagramWins(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 800
	cfg.NumPassengers = 60
	cfg.Days = 2
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()

	built := mustDiagram(t, NewPipeline(city.POIs, w.Journeys, DefaultConfig()))
	p := NewPipeline(city.POIs, w.Journeys, DefaultConfig())
	p.UseDiagram(built)
	if mustDiagram(t, p) != built {
		t.Fatal("UseDiagram did not take effect")
	}
}

// TestMineAllConcurrentSafe runs MineAllCtx twice and cross-checks results
// for determinism under the concurrent extraction path.
func TestMineAllConcurrentSafe(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 1500
	cfg.NumPassengers = 150
	cfg.Days = 3
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	params := pattern.DefaultParams()
	params.Sigma = 10

	p := NewPipeline(city.POIs, w.Journeys, DefaultConfig())
	a := mustMineAll(t, p, params)
	b := mustMineAll(t, p, params)
	for name := range a {
		if len(a[name]) != len(b[name]) {
			t.Fatalf("%s nondeterministic: %d vs %d patterns", name, len(a[name]), len(b[name]))
		}
	}
}
