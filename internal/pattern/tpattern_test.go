package pattern

import (
	"math/rand"
	"testing"
	"time"

	"csdm/internal/poi"
)

func TestTPatternFindsSpatialFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two spatially distinct flows without usable semantics.
	db := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute,
		[2]poi.Semantics{0, 0})
	db = append(db, flow(rng, 40, [2]float64{0, 3000}, [2]float64{4000, 3000}, 20, 30*time.Minute,
		[2]poi.Semantics{0, 0})...)
	ex := NewTPattern()
	if ex.Name() != "T-Pattern" {
		t.Fatalf("Name = %q", ex.Name())
	}
	// Anchors near grid-cell corners split their visits across up to
	// four cells — the grid-granularity weakness §2 attributes to this
	// family — so the density threshold is set below the per-cell
	// worst case.
	ex.MinCellVisits = 8
	got := mine(t, ex, db, testParams())
	if len(got) != 2 {
		t.Fatalf("patterns = %d, want 2 (semantic-free mining)", len(got))
	}
	for _, p := range got {
		if p.Support < 20 {
			t.Errorf("support = %d", p.Support)
		}
		for _, it := range p.Items {
			if !it.IsEmpty() {
				t.Error("T-Pattern items must carry no semantics")
			}
		}
		for _, sp := range p.Stays {
			if !sp.S.IsEmpty() {
				t.Error("T-Pattern stays must carry no semantics")
			}
		}
	}
}

func TestTPatternRespectsThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := flow(rng, 10, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute,
		[2]poi.Semantics{0, 0})
	if got := mine(t, NewTPattern(), db, testParams()); len(got) != 0 {
		t.Fatalf("sub-σ flow produced %d patterns", len(got))
	}
	// δ_t violation.
	slow := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 3*time.Hour,
		[2]poi.Semantics{0, 0})
	if got := mine(t, NewTPattern(), slow, testParams()); len(got) != 0 {
		t.Fatalf("δ_t-violating flow produced %d patterns", len(got))
	}
}

func TestTPatternEmptyAndDefaults(t *testing.T) {
	if got := mine(t, NewTPattern(), nil, testParams()); got != nil {
		t.Fatal("empty db should produce nil")
	}
	rng := rand.New(rand.NewSource(3))
	db := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute,
		[2]poi.Semantics{0, 0})
	zero := &TPattern{} // zero config falls back to defaults
	if got := mine(t, zero, db, testParams()); len(got) == 0 {
		t.Fatal("zero-config TPattern found nothing")
	}
}

func TestTPatternMergesAdjacentDenseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A flow whose endpoints straddle cell boundaries: the ~±120 m
	// stay scatter covers several adjacent 150 m cells that must merge
	// into one ROI each, or the flow fragments below σ.
	db := flow(rng, 60, [2]float64{0, 0}, [2]float64{4000, 0}, 60, 30*time.Minute,
		[2]poi.Semantics{0, 0})
	params := testParams()
	params.Sigma = 40
	params.Rho = 0 // wide endpoints: density check would reject otherwise
	ex := NewTPattern()
	ex.MinCellVisits = 6 // the scatter thins each 150 m cell to ~12 visits
	got := mine(t, ex, db, params)
	if len(got) == 0 {
		t.Fatal("adjacent dense cells did not merge into one ROI")
	}
}
