package pattern

import (
	"math/rand"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

var (
	origin = geo.Point{Lon: 121.47, Lat: 31.23}
	proj   = geo.NewProjection(origin)
	t0     = time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC)

	home   = poi.SemanticsOf(poi.Residence)
	office = poi.SemanticsOf(poi.BusinessOffice)
	shop   = poi.SemanticsOf(poi.ShopMarket)
)

func at(x, y float64) geo.Point { return proj.ToPoint(geo.Meters{X: x, Y: y}) }

// flow builds n annotated Home→Office trajectories whose stays scatter
// (spread meters) around the two given anchor offsets, with the given
// gap between stays.
func flow(rng *rand.Rand, n int, a, b [2]float64, spread float64, gap time.Duration, sems [2]poi.Semantics) []trajectory.SemanticTrajectory {
	var out []trajectory.SemanticTrajectory
	for i := 0; i < n; i++ {
		start := t0.Add(time.Duration(rng.Intn(60)) * time.Minute)
		out = append(out, trajectory.SemanticTrajectory{
			ID: int64(i),
			Stays: []trajectory.StayPoint{
				{P: at(a[0]+rng.NormFloat64()*spread, a[1]+rng.NormFloat64()*spread), T: start, S: sems[0]},
				{P: at(b[0]+rng.NormFloat64()*spread, b[1]+rng.NormFloat64()*spread), T: start.Add(gap), S: sems[1]},
			},
		})
	}
	return out
}

// extractors exercises every refiner.
var extractors = []Extractor{NewCounterpartCluster(), NewSplitter(), NewSDBSCAN()}

// mine runs ex on a background environment, failing on an error (a
// background environment is never canceled, so none is expected).
func mine(tb testing.TB, ex Extractor, db []trajectory.SemanticTrajectory, params Params) []Pattern {
	tb.Helper()
	out, err := ex.Extract(stage.Background(), db, params)
	if err != nil {
		tb.Fatalf("%s: %v", ex.Name(), err)
	}
	return out
}

// testParams keeps the thresholds small for compact test databases.
func testParams() Params {
	return Params{Sigma: 20, DeltaT: time.Hour, Rho: 0.0005, MinLen: 2, MaxLen: 4}
}

func TestExtractorsFindTwoSpatialVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Same semantic sequence Home→Office at two distant anchor pairs:
	// one coarse pattern, two fine-grained patterns.
	db := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute, [2]poi.Semantics{home, office})
	db = append(db, flow(rng, 40, [2]float64{0, 3000}, [2]float64{4000, 3000}, 20, 30*time.Minute, [2]poi.Semantics{home, office})...)

	for _, ex := range extractors {
		got := mine(t, ex, db, testParams())
		if len(got) != 2 {
			t.Errorf("%s: patterns = %d, want 2", ex.Name(), len(got))
			continue
		}
		for _, p := range got {
			if p.Support < 20 {
				t.Errorf("%s: support = %d", ex.Name(), p.Support)
			}
			if p.Len() != 2 {
				t.Errorf("%s: length = %d", ex.Name(), p.Len())
			}
			if p.Items[0] != home || p.Items[1] != office {
				t.Errorf("%s: items = %v", ex.Name(), p.Items)
			}
			// Representative stays sit near an anchor.
			m := proj.ToMeters(p.Stays[0].P)
			if !(near(m.X, 0) && (near(m.Y, 0) || near(m.Y, 3000))) {
				t.Errorf("%s: representative at (%.0f, %.0f)", ex.Name(), m.X, m.Y)
			}
		}
	}
}

func near(v, target float64) bool { return v > target-120 && v < target+120 }

func TestExtractorsRespectSupportThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := flow(rng, 10, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute, [2]poi.Semantics{home, office})
	params := testParams() // σ=20 > 10 supporters
	for _, ex := range extractors {
		if got := mine(t, ex, db, params); len(got) != 0 {
			t.Errorf("%s: %d patterns from sub-σ flow, want 0", ex.Name(), len(got))
		}
	}
}

func TestExtractorsRespectDeltaT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Gap of 3 h violates δ_t = 1 h.
	db := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 3*time.Hour, [2]poi.Semantics{home, office})
	for _, ex := range extractors {
		if got := mine(t, ex, db, testParams()); len(got) != 0 {
			t.Errorf("%s: %d patterns despite δ_t violation, want 0", ex.Name(), len(got))
		}
	}
}

func TestExtractorsRespectDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Stays scattered over ±2 km: any cluster that still forms has
	// density far below ρ.
	db := flow(rng, 60, [2]float64{0, 0}, [2]float64{8000, 0}, 2000, 30*time.Minute, [2]poi.Semantics{home, office})
	params := testParams()
	params.Rho = 0.002
	for _, ex := range extractors {
		for _, p := range mine(t, ex, db, params) {
			for k, g := range p.Groups {
				if d := geo.Density(groupPoints(g)); d < params.Rho {
					t.Errorf("%s: group %d density %.5f < ρ", ex.Name(), k, d)
				}
			}
		}
	}
}

func TestExtractorsIgnoreUnannotatedStays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := flow(rng, 40, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute,
		[2]poi.Semantics{0, 0}) // recognition failed everywhere
	for _, ex := range extractors {
		if got := mine(t, ex, db, testParams()); len(got) != 0 {
			t.Errorf("%s: patterns from unannotated stays", ex.Name())
		}
	}
}

func TestExtractThreeStopPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var db []trajectory.SemanticTrajectory
	for i := 0; i < 40; i++ {
		start := t0.Add(time.Duration(rng.Intn(45)) * time.Minute)
		db = append(db, trajectory.SemanticTrajectory{
			ID: int64(i),
			Stays: []trajectory.StayPoint{
				{P: at(rng.NormFloat64()*15, 0), T: start, S: office},
				{P: at(3000+rng.NormFloat64()*15, 0), T: start.Add(40 * time.Minute), S: shop},
				{P: at(6000+rng.NormFloat64()*15, 0), T: start.Add(85 * time.Minute), S: home},
			},
		})
	}
	for _, ex := range extractors {
		got := mine(t, ex, db, testParams())
		found := false
		for _, p := range got {
			if p.Len() == 3 && p.Items[0] == office && p.Items[1] == shop && p.Items[2] == home {
				found = true
				if p.Support < 20 {
					t.Errorf("%s: 3-stop support = %d", ex.Name(), p.Support)
				}
			}
		}
		if !found {
			t.Errorf("%s: Office→Shop→Home pattern not found", ex.Name())
		}
	}
}

func TestPatternGroupsAlignWithSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := flow(rng, 50, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute, [2]poi.Semantics{home, office})
	for _, ex := range extractors {
		for _, p := range mine(t, ex, db, testParams()) {
			for k, g := range p.Groups {
				// Definition 10: one counterpart stay per supporter,
				// plus the representative itself when it is not
				// already one of them.
				if len(g) != p.Support && len(g) != p.Support+1 {
					t.Errorf("%s: group %d size %d, want %d or %d", ex.Name(), k, len(g), p.Support, p.Support+1)
				}
			}
			// Representative must be a member of its group.
			for k, rep := range p.Stays {
				member := false
				for _, sp := range p.Groups[k] {
					if sp.P == rep.P {
						member = true
						break
					}
				}
				if !member {
					t.Errorf("%s: representative %d not in group", ex.Name(), k)
				}
			}
		}
	}
}

func TestCounterpartClusterConsumesTrajectoriesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := flow(rng, 60, [2]float64{0, 0}, [2]float64{4000, 0}, 20, 30*time.Minute, [2]poi.Semantics{home, office})
	got := mine(t, NewCounterpartCluster(), db, testParams())
	total := 0
	for _, p := range got {
		total += p.Support
	}
	if total > len(db) {
		t.Fatalf("supports sum to %d > %d trajectories: double counting", total, len(db))
	}
}

func TestExtractEmptyDatabase(t *testing.T) {
	for _, ex := range extractors {
		if got := mine(t, ex, nil, testParams()); len(got) != 0 {
			t.Errorf("%s: patterns from empty db", ex.Name())
		}
	}
}

func TestMeanTimeAndBuildPattern(t *testing.T) {
	support := [][]trajectory.StayPoint{
		{{P: at(0, 0), T: t0, S: home}},
		{{P: at(10, 0), T: t0.Add(2 * time.Hour), S: home}},
	}
	p := buildPattern([]poi.Semantics{home}, support)
	if p.Support != 2 || p.Len() != 1 {
		t.Fatalf("pattern = %+v", p)
	}
	if want := t0.Add(time.Hour); !p.Stays[0].T.Equal(want) {
		t.Fatalf("mean time = %v, want %v", p.Stays[0].T, want)
	}
	if p.Stays[0].S != home {
		t.Fatalf("semantics = %v", p.Stays[0].S)
	}
}

func TestRespectsDeltaT(t *testing.T) {
	stays := []trajectory.StayPoint{
		{T: t0}, {T: t0.Add(30 * time.Minute)}, {T: t0.Add(50 * time.Minute)},
	}
	if !respectsDeltaT(stays, time.Hour) {
		t.Error("within δ_t rejected")
	}
	if respectsDeltaT(stays, 25*time.Minute) {
		t.Error("δ_t violation accepted")
	}
	if !respectsDeltaT(stays[:1], time.Minute) {
		t.Error("single stay should always pass")
	}
}

func BenchmarkCounterpartCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	db := flow(rng, 200, [2]float64{0, 0}, [2]float64{4000, 0}, 25, 30*time.Minute, [2]poi.Semantics{home, office})
	db = append(db, flow(rng, 200, [2]float64{500, 2000}, [2]float64{4500, 2000}, 25, 30*time.Minute, [2]poi.Semantics{home, office})...)
	params := testParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine(b, NewCounterpartCluster(), db, params)
	}
}
