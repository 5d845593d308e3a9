package csd

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/synth"
)

var origin = geo.Point{Lon: 121.47, Lat: 31.23}
var proj = geo.NewProjection(origin)

func at(x, y float64) geo.Point { return proj.ToPoint(geo.Meters{X: x, Y: y}) }

// mkPOI builds a POI of the given major at a meter offset.
func mkPOI(id int64, major poi.Major, x, y float64) poi.POI {
	return poi.POI{ID: id, Location: at(x, y), Minor: poi.MinorsOf(major)[0]}
}

// blockOf scatters n same-major POIs tightly around (cx, cy).
func blockOf(rng *rand.Rand, startID int64, major poi.Major, cx, cy float64, n int, spread float64) []poi.POI {
	out := make([]poi.POI, n)
	for i := range out {
		out[i] = mkPOI(startID+int64(i), major,
			cx+rng.NormFloat64()*spread, cy+rng.NormFloat64()*spread)
	}
	return out
}

// uniformStays lays a stay point lattice over the area so popularity is
// roughly equal everywhere.
func uniformStays(extent, step float64) []geo.Point {
	var out []geo.Point
	for x := -extent; x <= extent; x += step {
		for y := -extent; y <= extent; y += step {
			out = append(out, at(x, y))
		}
	}
	return out
}

func TestPopularityFollowsStayDensity(t *testing.T) {
	pois := []poi.POI{
		mkPOI(1, poi.Restaurant, 0, 0),
		mkPOI(2, poi.Restaurant, 2000, 0),
	}
	// Ten stays at the first POI, none near the second.
	var stays []geo.Point
	for i := 0; i < 10; i++ {
		stays = append(stays, at(float64(i), 0))
	}
	pop := make([]float64, len(pois))
	if err := FoldPopularity(context.Background(), exec.Options{}, geo.NewGaussianKernel(100), poi.Locations(pois), geo.Pack(stays), pop, nil); err != nil {
		t.Fatal(err)
	}
	if pop[0] <= 0 {
		t.Fatalf("pop[0] = %v, want > 0", pop[0])
	}
	if pop[1] != 0 {
		t.Fatalf("pop[1] = %v, want 0 (no nearby stays)", pop[1])
	}
}

func TestPopularityEmptyStays(t *testing.T) {
	pois := []poi.POI{mkPOI(1, poi.Restaurant, 0, 0)}
	pop := make([]float64, len(pois))
	if err := FoldPopularity(context.Background(), exec.Options{}, geo.NewGaussianKernel(100), poi.Locations(pois), geo.Pack(nil), pop, nil); err != nil {
		t.Fatal(err)
	}
	if pop[0] != 0 {
		t.Fatalf("pop = %v, want 0", pop)
	}
}

func TestBuildSeparatesDistantSameMajorBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.Restaurant, 0, 0, 12, 8)...)
	pois = append(pois, blockOf(rng, 100, poi.Restaurant, 1000, 0, 12, 8)...)
	d := Build(pois, uniformStays(1500, 100), DefaultParams())
	if len(d.Units) != 2 {
		t.Fatalf("units = %d, want 2 distant blocks", len(d.Units))
	}
	for _, u := range d.Units {
		if !u.Semantics.Has(poi.Restaurant) || u.Semantics.Count() != 1 {
			t.Errorf("unit semantics = %v", u.Semantics)
		}
	}
}

func TestBuildKeepsTowerMixed(t *testing.T) {
	// A skyscraper: 15 POIs of three majors all within ~8 m. Variance is
	// tiny, so purification must keep the mixed unit whole.
	rng := rand.New(rand.NewSource(2))
	var pois []poi.POI
	var id int64 = 1
	for i := 0; i < 5; i++ {
		for _, mj := range []poi.Major{poi.BusinessOffice, poi.ShopMarket, poi.Restaurant} {
			pois = append(pois, mkPOI(id, mj, rng.NormFloat64()*3, rng.NormFloat64()*3))
			id++
		}
	}
	d := Build(pois, uniformStays(200, 50), DefaultParams())
	if len(d.Units) != 1 {
		t.Fatalf("tower produced %d units, want 1", len(d.Units))
	}
	if got := d.Units[0].Semantics.Count(); got != 3 {
		t.Fatalf("tower unit semantics count = %d, want 3", got)
	}
}

func TestPurificationSplitsMixedSpreadCluster(t *testing.T) {
	// Two same-location-scale but semantically different halves placed
	// within ε_p chaining distance: Algorithm 1 joins them via d_v
	// stacking? No — they are farther than d_v but share no major, so
	// chaining only happens within each half. To force a mixed coarse
	// cluster we interleave the two majors within d_v of each other and
	// spread the whole cluster wide so variance is large.
	rng := rand.New(rand.NewSource(3))
	var pois []poi.POI
	var id int64 = 1
	// A "street" 200 m long: west half offices, east half restaurants,
	// POIs every 10 m (< d_v), so Algorithm 1 chains them into one
	// coarse cluster via vertical overlap.
	for x := -100.0; x < 0; x += 10 {
		pois = append(pois, mkPOI(id, poi.BusinessOffice, x+rng.NormFloat64(), 0))
		id++
	}
	for x := 0.0; x <= 100; x += 10 {
		pois = append(pois, mkPOI(id, poi.Restaurant, x+rng.NormFloat64(), 0))
		id++
	}
	params := DefaultParams()
	params.SkipMerging = true
	d := Build(pois, uniformStays(300, 50), params)
	if len(d.Units) < 2 {
		t.Fatalf("purification kept %d unit(s); mixed spread cluster must split", len(d.Units))
	}
	// Every resulting unit must qualify as fine-grained: single-semantic
	// or spatially tight.
	for _, u := range d.Units {
		pts := make([]geo.Point, len(u.Members))
		major := d.POIs[u.Members[0]].Major()
		single := true
		for k, i := range u.Members {
			pts[k] = d.POIs[i].Location
			if d.POIs[i].Major() != major {
				single = false
			}
		}
		if !single && geo.VarianceMeters(pts) >= params.VMin {
			t.Fatalf("unit %d violates Definition 3 (mixed and spread)", u.ID)
		}
	}
	if p := d.MeanUnitPurity(); p < 0.9 {
		t.Fatalf("mean unit purity %.3f after purification, want ≥ 0.9", p)
	}
}

func TestAblationSkipPurificationLowersPurity(t *testing.T) {
	// A mixed tower whose first POI seeds Algorithm 1, plus an office
	// wing chained off it: the coarse cluster is mixed AND spread, so
	// only purification can restore semantic consistency.
	rng := rand.New(rand.NewSource(4))
	var pois []poi.POI
	var id int64 = 1
	for i := 0; i < 6; i++ { // tower offices (the seed comes first)
		pois = append(pois, mkPOI(id, poi.BusinessOffice, rng.NormFloat64()*3, 0))
		id++
	}
	for i := 0; i < 6; i++ { // tower restaurants, within d_v of the seed
		pois = append(pois, mkPOI(id, poi.Restaurant, rng.NormFloat64()*3, 0))
		id++
	}
	for x := 15.0; x <= 120; x += 10 { // office wing chained via same-major
		pois = append(pois, mkPOI(id, poi.BusinessOffice, x+rng.NormFloat64(), 0))
		id++
	}
	stays := uniformStays(300, 50)
	on := Build(pois, stays, DefaultParams())
	off := Build(pois, stays, Params{
		R3Sigma: 100, DV: 15, MinPts: 5, EpsP: 30, Alpha: 0.8,
		VMin: 150, MergeCos: 0.9, MergeDist: 150, SkipPurification: true,
	})
	if on.MeanUnitPurity() <= off.MeanUnitPurity() {
		t.Fatalf("purification should raise purity: on=%.3f off=%.3f",
			on.MeanUnitPurity(), off.MeanUnitPurity())
	}
}

func TestMergingJoinsFragmentedStreet(t *testing.T) {
	// Two restaurant fragments separated by an 80 m plaza: Algorithm 1
	// cannot chain across (> ε_p), merging must reunite them.
	rng := rand.New(rand.NewSource(5))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.Restaurant, 0, 0, 10, 6)...)
	pois = append(pois, blockOf(rng, 50, poi.Restaurant, 80, 0, 10, 6)...)
	stays := uniformStays(200, 40)

	merged := Build(pois, stays, DefaultParams())
	if len(merged.Units) != 1 {
		t.Fatalf("merged units = %d, want 1", len(merged.Units))
	}
	params := DefaultParams()
	params.SkipMerging = true
	unmerged := Build(pois, stays, params)
	if len(unmerged.Units) != 2 {
		t.Fatalf("unmerged units = %d, want 2", len(unmerged.Units))
	}
}

func TestMergingRespectsSemanticDissimilarity(t *testing.T) {
	// Restaurant and office fragments 80 m apart: cosine is 0, no merge.
	rng := rand.New(rand.NewSource(6))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.Restaurant, 0, 0, 10, 6)...)
	pois = append(pois, blockOf(rng, 50, poi.BusinessOffice, 80, 0, 10, 6)...)
	d := Build(pois, uniformStays(200, 40), DefaultParams())
	if len(d.Units) != 2 {
		t.Fatalf("units = %d, want 2 (no cross-semantic merge)", len(d.Units))
	}
}

func TestLeftoverPOIAttachesToNearbySimilarUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.BusinessOffice, 0, 0, 10, 6)...)
	// A lone office POI 60 m away: below MinPts on its own, merged in.
	pois = append(pois, mkPOI(99, poi.BusinessOffice, 60, 0))
	d := Build(pois, uniformStays(200, 40), DefaultParams())
	if len(d.Units) != 1 {
		t.Fatalf("units = %d, want 1", len(d.Units))
	}
	if got := d.UnitOf(len(pois) - 1); got != 0 {
		t.Fatalf("leftover POI unit = %d, want 0", got)
	}
	if d.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1", d.Coverage())
	}
}

func TestKeepSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var pois []poi.POI
	pois = append(pois, blockOf(rng, 1, poi.BusinessOffice, 0, 0, 10, 6)...)
	// Isolated hospital POI 3 km away: never clusters, never merges.
	pois = append(pois, mkPOI(99, poi.MedicalService, 3000, 0))
	stays := uniformStays(3200, 200)

	d := Build(pois, stays, DefaultParams())
	if got := d.UnitOf(len(pois) - 1); got != -1 {
		t.Fatalf("isolated POI should be outside CSD, got unit %d", got)
	}
	params := DefaultParams()
	params.KeepSingletons = true
	d2 := Build(pois, stays, params)
	if got := d2.UnitOf(len(pois) - 1); got == -1 {
		t.Fatal("KeepSingletons should give the isolated POI a unit")
	}
	if d2.Coverage() != 1 {
		t.Fatalf("coverage with singletons = %v", d2.Coverage())
	}
}

func TestMembersWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pois := blockOf(rng, 1, poi.Restaurant, 0, 0, 10, 6)
	d := Build(pois, uniformStays(100, 30), DefaultParams())
	got := d.MembersWithinAppend(origin, 100, nil)
	if len(got) != len(pois) {
		t.Fatalf("MembersWithinAppend = %d, want %d", len(got), len(pois))
	}
	if got2 := d.MembersWithinAppend(at(5000, 0), 100, nil); len(got2) != 0 {
		t.Fatalf("distant MembersWithinAppend = %d, want 0", len(got2))
	}
}

func TestUnitInvariants(t *testing.T) {
	// Invariants over a full synthetic city: every unit is non-empty,
	// every member maps back to its unit, semantics is the member union,
	// and every unit qualifies as a fine-grained unit (Definition 3).
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 2500
	cfg.NumPassengers = 250
	cfg.Days = 3
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	stays := make([]geo.Point, 0)
	for _, sp := range w.StayPoints() {
		stays = append(stays, sp.P)
	}
	d := Build(city.POIs, stays, DefaultParams())
	if len(d.Units) == 0 {
		t.Fatal("city produced no units")
	}
	for _, u := range d.Units {
		if len(u.Members) == 0 {
			t.Fatal("empty unit")
		}
		var union poi.Semantics
		for _, i := range u.Members {
			if d.UnitOf(i) != u.ID {
				t.Fatalf("UnitOf(%d) = %d, want %d", i, d.UnitOf(i), u.ID)
			}
			union = union.Union(d.POIs[i].Semantics())
		}
		if union != u.Semantics {
			t.Fatalf("unit %d semantics %v != member union %v", u.ID, u.Semantics, union)
		}
	}
	if c := d.Coverage(); c <= 0 || c > 1 {
		t.Fatalf("coverage = %v", c)
	}
	if p := d.MeanUnitPurity(); p < 0.5 {
		t.Fatalf("mean purity = %.3f, implausibly low", p)
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0.1, 0.9, 0}
	if kl := klDivergence(p, p); kl > 1e-9 {
		t.Fatalf("KL(p‖p) = %v, want ~0", kl)
	}
	if kl := klDivergence(p, q); kl <= 0 {
		t.Fatalf("KL(p‖q) = %v, want > 0", kl)
	}
	// Smoothing keeps zero-mass terms finite.
	r := []float64{1, 0, 0}
	s := []float64{0, 1, 0}
	if kl := klDivergence(r, s); math.IsInf(kl, 0) || math.IsNaN(kl) {
		t.Fatalf("KL with zero mass = %v", kl)
	}
}

func TestPopRatioOK(t *testing.T) {
	cases := []struct {
		a, b  float64
		alpha float64
		want  bool
	}{
		{10, 10, 0.8, true},
		{10, 8, 0.8, true},
		{10, 7, 0.8, false},
		{0, 0, 0.8, true},
		{0, 5, 0.8, false},
		{5, 0, 0.8, false},
	}
	for _, c := range cases {
		if got := popRatioOK(c.a, c.b, c.alpha); got != c.want {
			t.Errorf("popRatioOK(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMedianOf(t *testing.T) {
	if m := medianOf([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := medianOf([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := medianOf(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}

func TestBuildEmptyInputs(t *testing.T) {
	d := Build(nil, nil, DefaultParams())
	if len(d.Units) != 0 || d.Coverage() != 0 {
		t.Fatalf("empty build produced units")
	}
	if got := d.MembersWithinAppend(origin, 100, nil); len(got) != 0 {
		t.Fatalf("empty MembersWithinAppend = %v", got)
	}
	if d.MeanUnitPurity() != 0 {
		t.Fatal("empty purity should be 0")
	}
}

func TestAlphaOneRequiresEqualPopularity(t *testing.T) {
	// With α=1 and a popularity gradient, clusters shrink relative to α=0.5.
	rng := rand.New(rand.NewSource(10))
	pois := blockOf(rng, 1, poi.Restaurant, 0, 0, 30, 20)
	// Stays concentrated at one end create a popularity gradient.
	var stays []geo.Point
	for i := 0; i < 200; i++ {
		stays = append(stays, at(rng.NormFloat64()*30-30, rng.NormFloat64()*10))
	}
	loose := DefaultParams()
	loose.Alpha = 0.3
	strict := DefaultParams()
	strict.Alpha = 0.999
	dl := Build(pois, stays, loose)
	ds := Build(pois, stays, strict)
	cl := 0
	for _, u := range dl.Units {
		cl += len(u.Members)
	}
	cs := 0
	for _, u := range ds.Units {
		cs += len(u.Members)
	}
	if cs > cl {
		t.Fatalf("strict α clustered more POIs (%d) than loose α (%d)", cs, cl)
	}
}

func BenchmarkBuildCSDSmallCity(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 3000
	cfg.NumPassengers = 300
	cfg.Days = 3
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	stays := make([]geo.Point, 0, 2*len(w.Journeys))
	for _, sp := range w.StayPoints() {
		stays = append(stays, sp.P)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(city.POIs, stays, DefaultParams())
	}
}
