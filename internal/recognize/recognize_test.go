package recognize

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/stage"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

var origin = geo.Point{Lon: 121.47, Lat: 31.23}
var proj = geo.NewProjection(origin)

func at(x, y float64) geo.Point { return proj.ToPoint(geo.Meters{X: x, Y: y}) }

func mkPOI(id int64, major poi.Major, x, y float64) poi.POI {
	return poi.POI{ID: id, Location: at(x, y), Minor: poi.MinorsOf(major)[0]}
}

// shopVsRestaurantScene builds the Figure 7 scenario: a popular shop
// unit and a less popular restaurant unit flanking a stay location.
// Returns the POIs and the stay points that establish popularity.
func shopVsRestaurantScene(rng *rand.Rand) ([]poi.POI, []geo.Point) {
	var pois []poi.POI
	var id int64 = 1
	for i := 0; i < 10; i++ { // shop unit ~40 m west
		pois = append(pois, mkPOI(id, poi.ShopMarket, -40+rng.NormFloat64()*5, rng.NormFloat64()*5))
		id++
	}
	for i := 0; i < 6; i++ { // restaurant unit ~60 m east
		pois = append(pois, mkPOI(id, poi.Restaurant, 60+rng.NormFloat64()*5, rng.NormFloat64()*5))
		id++
	}
	// Popularity: many historical stays at the shops, few at the
	// restaurants.
	var stays []geo.Point
	for i := 0; i < 120; i++ {
		stays = append(stays, at(-40+rng.NormFloat64()*15, rng.NormFloat64()*15))
	}
	for i := 0; i < 15; i++ {
		stays = append(stays, at(60+rng.NormFloat64()*15, rng.NormFloat64()*15))
	}
	return pois, stays
}

func TestCSDRecognizerPicksPopularUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pois, stays := shopVsRestaurantScene(rng)
	d := csd.Build(pois, stays, csd.DefaultParams())
	r := NewCSDRecognizer(d)
	if r.Name() != "CSD" {
		t.Fatalf("Name = %q", r.Name())
	}
	got := r.RecognizeBuf(origin, new(Scratch))
	if !got.Has(poi.ShopMarket) {
		t.Fatalf("RecognizeBuf = %v, want shop unit (higher popularity, closer, more POIs)", got)
	}
	if got.Has(poi.Restaurant) {
		t.Fatalf("RecognizeBuf = %v leaked restaurant tags from the losing unit", got)
	}
}

func TestCSDRecognizerEmptyNeighborhood(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pois, stays := shopVsRestaurantScene(rng)
	d := csd.Build(pois, stays, csd.DefaultParams())
	r := NewCSDRecognizer(d)
	if got := r.RecognizeBuf(at(5000, 5000), new(Scratch)); !got.IsEmpty() {
		t.Fatalf("RecognizeBuf far away = %v, want empty", got)
	}
}

func TestCSDRecognizerStableUnderGPSNoise(t *testing.T) {
	// The §4.2 robustness claim: jittered stay locations keep getting
	// the same unit's tags far more often with unit voting than with
	// nearest-POI annotation near a unit boundary.
	rng := rand.New(rand.NewSource(3))
	pois, stays := shopVsRestaurantScene(rng)
	d := csd.Build(pois, stays, csd.DefaultParams())
	votingR := NewCSDRecognizer(d)
	nearestR := NewNearestPOIRecognizer(pois, 100, index.KindKDTree)

	base := at(5, 0) // near the boundary region between units
	stable := func(r Recognizer) int {
		ref := r.RecognizeBuf(base, new(Scratch))
		same := 0
		for i := 0; i < 100; i++ {
			p := at(5+rng.NormFloat64()*20, rng.NormFloat64()*20)
			if r.RecognizeBuf(p, new(Scratch)) == ref {
				same++
			}
		}
		return same
	}
	v, n := stable(votingR), stable(nearestR)
	if v < n {
		t.Fatalf("voting stability %d/100 < nearest-POI %d/100", v, n)
	}
	if v < 80 {
		t.Fatalf("voting stability only %d/100", v)
	}
}

func TestROIRecognizerRegionAnnotation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// One hot region chaining across two adjacent venues: shops at x=0,
	// restaurants at x=250, stays along the whole strip.
	var stays []geo.Point
	for i := 0; i < 80; i++ {
		stays = append(stays, at(rng.Float64()*250, rng.NormFloat64()*20))
	}
	var pois []poi.POI
	var id int64 = 1
	for i := 0; i < 10; i++ {
		pois = append(pois, mkPOI(id, poi.ShopMarket, rng.NormFloat64()*20, rng.NormFloat64()*20))
		id++
	}
	for i := 0; i < 10; i++ {
		pois = append(pois, mkPOI(id, poi.Restaurant, 250+rng.NormFloat64()*20, rng.NormFloat64()*20))
		id++
	}
	r := NewROIRecognizerEnv(stage.Background(), stays, pois, DefaultROIParams())
	if r.Name() != "ROI" {
		t.Fatalf("Name = %q", r.Name())
	}
	if r.NumRegions() == 0 {
		t.Fatal("no hot regions detected")
	}
	if !r.InRegion(origin) {
		t.Fatal("origin should be inside the hot region")
	}
	// Uncontrolled purity: stay points in one region receive different
	// tag sets depending on where they fall — pure shop tags at one
	// end, mixed in the middle, pure restaurant tags at the other end.
	// This is the weakness the CSD purification step exists to fix.
	west := r.RecognizeBuf(at(0, 0), new(Scratch))
	mid := r.RecognizeBuf(at(125, 0), new(Scratch))
	east := r.RecognizeBuf(at(250, 0), new(Scratch))
	if !west.Has(poi.ShopMarket) || west.Has(poi.Restaurant) {
		t.Fatalf("west tags = %v, want pure shop", west)
	}
	if !east.Has(poi.Restaurant) || east.Has(poi.ShopMarket) {
		t.Fatalf("east tags = %v, want pure restaurant", east)
	}
	if !mid.Has(poi.ShopMarket) || !mid.Has(poi.Restaurant) {
		t.Fatalf("mid tags = %v, want mixed (uncontrolled purity)", mid)
	}
}

func TestROIRecognizerUnannotatedOutsideRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var stays []geo.Point
	for i := 0; i < 40; i++ {
		stays = append(stays, at(rng.NormFloat64()*30, rng.NormFloat64()*30))
	}
	pois := []poi.POI{
		mkPOI(1, poi.Restaurant, 0, 0),
		mkPOI(2, poi.MedicalService, 2000, 0), // isolated hospital, no region
	}
	r := NewROIRecognizerEnv(stage.Background(), stays, pois, DefaultROIParams())
	if got := r.RecognizeBuf(origin, new(Scratch)); !got.Has(poi.Restaurant) {
		t.Fatalf("in-region annotation = %v, want restaurant", got)
	}
	// Strictly per [21], only hot regions annotate: the hospital has
	// POIs but no stay density, so recognition fails there.
	if got := r.RecognizeBuf(at(2010, 0), new(Scratch)); !got.IsEmpty() {
		t.Fatalf("outside regions = %v, want empty", got)
	}
}

func TestROIRecognizerNoRegions(t *testing.T) {
	pois := []poi.POI{mkPOI(1, poi.Restaurant, 0, 0)}
	r := NewROIRecognizerEnv(stage.Background(), []geo.Point{origin}, pois, DefaultROIParams())
	if r.NumRegions() != 0 {
		t.Fatalf("regions = %d, want 0", r.NumRegions())
	}
	if got := r.RecognizeBuf(origin, new(Scratch)); !got.IsEmpty() {
		t.Fatalf("no regions should mean no annotation, got %v", got)
	}
}

func TestNearestPOIRecognizer(t *testing.T) {
	pois := []poi.POI{
		mkPOI(1, poi.Restaurant, 0, 0),
		mkPOI(2, poi.ShopMarket, 50, 0),
	}
	r := NewNearestPOIRecognizer(pois, 100, index.KindKDTree)
	if r.Name() != "NearestPOI" {
		t.Fatalf("Name = %q", r.Name())
	}
	if got := r.RecognizeBuf(at(10, 0), new(Scratch)); !got.Has(poi.Restaurant) {
		t.Fatalf("RecognizeBuf = %v", got)
	}
	if got := r.RecognizeBuf(at(45, 0), new(Scratch)); !got.Has(poi.ShopMarket) {
		t.Fatalf("RecognizeBuf = %v", got)
	}
	if got := r.RecognizeBuf(at(500, 0), new(Scratch)); !got.IsEmpty() {
		t.Fatalf("out of radius = %v", got)
	}
}

func TestAnnotateFillsSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pois, stays := shopVsRestaurantScene(rng)
	d := csd.Build(pois, stays, csd.DefaultParams())
	r := NewCSDRecognizer(d)

	t0 := time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC)
	db := []trajectory.SemanticTrajectory{
		{ID: 1, Stays: []trajectory.StayPoint{
			{P: at(-40, 0), T: t0},
			{P: at(60, 0), T: t0.Add(time.Hour)},
		}},
	}
	if err := AnnotateCtx(context.Background(), db, r, 0); err != nil {
		t.Fatal(err)
	}
	if !db[0].Stays[0].S.Has(poi.ShopMarket) {
		t.Fatalf("stay 0 = %v", db[0].Stays[0].S)
	}
	if !db[0].Stays[1].S.Has(poi.Restaurant) {
		t.Fatalf("stay 1 = %v", db[0].Stays[1].S)
	}
}

func TestAnnotateJourneys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pois, stays := shopVsRestaurantScene(rng)
	d := csd.Build(pois, stays, csd.DefaultParams())
	r := NewCSDRecognizer(d)
	t0 := time.Date(2015, 4, 6, 8, 0, 0, 0, time.UTC)
	js := []trajectory.Journey{
		{PassengerID: 1, Pickup: at(-40, 0), PickupTime: t0, Dropoff: at(60, 0), DropoffTime: t0.Add(20 * time.Minute)},
		{PassengerID: 1, Pickup: at(62, 0), PickupTime: t0.Add(2 * time.Hour), Dropoff: at(-38, 0), DropoffTime: t0.Add(2*time.Hour + 20*time.Minute)},
	}
	// The scene's anchors are only ~100 m apart, so use a merge radius
	// below that to keep the stays distinct.
	sts, err := AnnotateJourneysEnv(stage.Background(), js, trajectory.ChainParams{MergeDist: 20, MinStays: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 {
		t.Fatalf("trajectories = %d, want 1", len(sts))
	}
	for i, sp := range sts[0].Stays {
		if sp.S.IsEmpty() {
			t.Fatalf("stay %d unannotated", i)
		}
	}
}

// smallCity returns a small synthetic city's POIs, its stay points and
// the chained trajectory database of its journeys.
func smallCity() ([]poi.POI, []geo.Point, []trajectory.SemanticTrajectory) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 600
	cfg.NumPassengers = 150
	cfg.Days = 3
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	stays := make([]geo.Point, 0, 2*len(w.Journeys))
	for _, j := range w.Journeys {
		stays = append(stays, j.Pickup, j.Dropoff)
	}
	return city.POIs, stays, trajectory.Chain(w.Journeys, trajectory.DefaultChainParams())
}

// TestRecognizeStaysZeroAllocs pins the untraced hot path's contract:
// once a Scratch has grown to the stays' working set, Algorithm 3 over
// them through RecognizeStays allocates nothing.
func TestRecognizeStaysZeroAllocs(t *testing.T) {
	pois, stays, _ := smallCity()
	r := NewCSDRecognizer(csd.Build(pois, stays, csd.DefaultParams()))
	probe := make([]trajectory.StayPoint, len(stays))
	for i, p := range stays {
		probe[i].P = p
	}
	ctx := context.Background()
	sc := new(Scratch)
	if err := RecognizeStays(ctx, probe, r, sc); err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, sp := range probe {
		if !sp.S.IsEmpty() {
			known++
		}
	}
	if known == 0 {
		t.Fatal("no stay recognized; the probe exercises nothing")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := RecognizeStays(ctx, probe, r, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RecognizeStays with a warmed Scratch: %v allocs per run over %d stays, want 0", allocs, len(probe))
	}
}

// backends lists every index kind the recognizers can be built on.
var backends = []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree}

// bruteNearestPOI is the oracle of the nearest-POI baseline: a scan of
// every POI, with no index, for the closest one within radius by
// geo.Haversine, ties to the lowest position in pois.
func bruteNearestPOI(pois []poi.POI, p geo.Point, radius float64) poi.Semantics {
	best, bestD := -1, 0.0
	for i, q := range pois {
		if d := geo.Haversine(p, q.Location); d <= radius && (best < 0 || d < bestD) {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return 0
	}
	return pois[best].Semantics()
}

// TestNearestPOIMatchesBruteForce checks the nearest-POI recognizer
// against the brute-force oracle on every backend: over every stay of
// a small synthetic city, and on a hand-built set with two POIs of
// different categories at identical coordinates, where the tie must go
// to the lower position, and with stays just inside and just outside
// the radius.
func TestNearestPOIMatchesBruteForce(t *testing.T) {
	cityPOIs, stays, _ := smallCity()
	radius := csd.DefaultParams().R3Sigma
	for _, kind := range backends {
		r := NewNearestPOIRecognizer(cityPOIs, radius, kind)
		sc := new(Scratch)
		known := 0
		for i, p := range stays {
			want := bruteNearestPOI(cityPOIs, p, radius)
			if got := r.RecognizeBuf(p, sc); got != want {
				t.Fatalf("%s: stay %d: RecognizeBuf = %v, brute force %v", kind, i, got, want)
			}
			if !want.IsEmpty() {
				known++
			}
		}
		if known == 0 || known == len(stays) {
			t.Fatalf("%s: %d of %d stays in range; want some in and some out", kind, known, len(stays))
		}
	}

	pois := []poi.POI{
		mkPOI(1, poi.Restaurant, -300, 0),
		mkPOI(2, poi.ShopMarket, 300, 0),
		mkPOI(3, poi.MedicalService, 300, 0),
	}
	probes := []struct {
		p    geo.Point
		want poi.Semantics
	}{
		{at(300, 0), poi.SemanticsOf(poi.ShopMarket)},
		{at(330, 20), poi.SemanticsOf(poi.ShopMarket)},
		{at(300, 99.5), poi.SemanticsOf(poi.ShopMarket)},
		{at(300, 100.5), 0},
		{at(-300, -100.5), 0},
		{at(-260, 0), poi.SemanticsOf(poi.Restaurant)},
	}
	for _, kind := range backends {
		r := NewNearestPOIRecognizer(pois, 100, kind)
		sc := new(Scratch)
		for i, pr := range probes {
			want := bruteNearestPOI(pois, pr.p, 100)
			if want != pr.want {
				t.Fatalf("probe %d: brute force = %v, want %v", i, want, pr.want)
			}
			if got := r.RecognizeBuf(pr.p, sc); got != want {
				t.Errorf("%s: probe %d: RecognizeBuf = %v, brute force %v", kind, i, got, want)
			}
		}
	}
}

// TestNearestPOIRecognizeStaysZeroAllocs pins the nearest-POI
// baseline to the zero-allocation contract: with a warmed Scratch, its
// range query reuses the Scratch's id buffer and RecognizeStays
// allocates nothing, on every backend.
func TestNearestPOIRecognizeStaysZeroAllocs(t *testing.T) {
	pois, stays, _ := smallCity()
	probe := make([]trajectory.StayPoint, 3)
	for i := range probe {
		probe[i].P = stays[i]
	}
	ctx := context.Background()
	for _, kind := range backends {
		r := NewNearestPOIRecognizer(pois, csd.DefaultParams().R3Sigma, kind)
		sc := new(Scratch)
		if err := RecognizeStays(ctx, probe, r, sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := RecognizeStays(ctx, probe, r, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: RecognizeStays with a warmed Scratch: %v allocs per run over %d stays, want 0", kind, allocs, len(probe))
		}
	}
}

// TestNearestPOIAnnotateWorkerInvariant checks that the nearest-POI
// baseline annotates a database identically at one and four workers.
func TestNearestPOIAnnotateWorkerInvariant(t *testing.T) {
	pois, _, db := smallCity()
	r := NewNearestPOIRecognizer(pois, csd.DefaultParams().R3Sigma, index.KindGrid)
	annotate := func(workers int) []trajectory.SemanticTrajectory {
		t.Helper()
		out := make([]trajectory.SemanticTrajectory, len(db))
		for i, st := range db {
			out[i] = st
			out[i].Stays = append([]trajectory.StayPoint(nil), st.Stays...)
		}
		if err := AnnotateCtx(context.Background(), out, r, workers); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := annotate(1), annotate(4)
	known, unknown := 0, 0
	for i := range one {
		for j, sp := range one[i].Stays {
			if got := four[i].Stays[j].S; got != sp.S {
				t.Fatalf("trajectory %d stay %d: %v at four workers, %v at one", i, j, got, sp.S)
			}
			if sp.S.IsEmpty() {
				unknown++
			} else {
				known++
			}
		}
	}
	if known == 0 || unknown == 0 {
		t.Fatalf("%d stays known and %d unknown; want both non-zero", known, unknown)
	}
}
