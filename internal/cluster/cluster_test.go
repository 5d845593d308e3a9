package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
)

var origin = geo.Point{Lon: 121.47, Lat: 31.23}

// blob scatters n points with the given Gaussian spread (meters) around
// a center offset (meters) from origin.
func blob(rng *rand.Rand, n int, cx, cy, spread float64) []geo.Point {
	pr := geo.NewProjection(origin)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = pr.ToPoint(geo.Meters{
			X: cx + rng.NormFloat64()*spread,
			Y: cy + rng.NormFloat64()*spread,
		})
	}
	return pts
}

// threeBlobs builds three well-separated 50-point blobs.
func threeBlobs(rng *rand.Rand) []geo.Point {
	pts := blob(rng, 50, 0, 0, 15)
	pts = append(pts, blob(rng, 50, 1000, 0, 15)...)
	pts = append(pts, blob(rng, 50, 0, 1000, 15)...)
	return pts
}

// sameCluster reports whether points i and j share a non-noise label.
func sameCluster(r Result, i, j int) bool {
	return r.Labels[i] >= 0 && r.Labels[i] == r.Labels[j]
}

func TestDBSCANFindsThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := threeBlobs(rng)
	r := DBSCAN(pts, 100, 5, exec.Options{})
	if r.NumClusters != 3 {
		t.Fatalf("NumClusters = %d, want 3", r.NumClusters)
	}
	// All points within one blob share a label; across blobs differ.
	if !sameCluster(r, 0, 49) {
		t.Error("points of blob 1 not co-clustered")
	}
	if !sameCluster(r, 50, 99) {
		t.Error("points of blob 2 not co-clustered")
	}
	if sameCluster(r, 0, 50) || sameCluster(r, 0, 100) {
		t.Error("distinct blobs merged")
	}
	if r.NoiseCount() > 5 {
		t.Errorf("too much noise: %d", r.NoiseCount())
	}
}

func TestDBSCANMarksOutliersNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pr := geo.NewProjection(origin)
	pts := blob(rng, 40, 0, 0, 10)
	outlier := pr.ToPoint(geo.Meters{X: 5000, Y: 5000})
	pts = append(pts, outlier)
	r := DBSCAN(pts, 80, 4, exec.Options{})
	if r.Labels[len(pts)-1] != Noise {
		t.Fatalf("outlier labeled %d, want Noise", r.Labels[len(pts)-1])
	}
}

func TestDBSCANDegenerateInputs(t *testing.T) {
	if r := DBSCAN(nil, 100, 5, exec.Options{}); len(r.Labels) != 0 || r.NumClusters != 0 {
		t.Error("empty input should produce empty result")
	}
	pts := []geo.Point{origin, origin}
	if r := DBSCAN(pts, 0, 5, exec.Options{}); r.NumClusters != 0 {
		t.Error("eps=0 should cluster nothing")
	}
	if r := DBSCAN(pts, 100, 0, exec.Options{}); r.NumClusters != 0 {
		t.Error("minPts=0 should cluster nothing")
	}
}

func TestDBSCANAllPointsLabeledProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 1
		pts := blob(rng, n, 0, 0, 200)
		r := DBSCAN(pts, 60, 3, exec.Options{})
		if len(r.Labels) != n {
			return false
		}
		for _, l := range r.Labels {
			if l < Noise || l >= r.NumClusters {
				return false
			}
		}
		// Every declared cluster must have at least one member.
		seen := make(map[int]bool)
		for _, l := range r.Labels {
			if l >= 0 {
				seen[l] = true
			}
		}
		return len(seen) == r.NumClusters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOpticsEmptyAndTiny(t *testing.T) {
	if o := Optics(nil, 100, 5, exec.Options{}); len(o.Order) != 0 {
		t.Error("empty OPTICS should have empty order")
	}
	pts := []geo.Point{origin}
	o := Optics(pts, 100, 5, exec.Options{})
	if len(o.Order) != 1 {
		t.Fatalf("one-point OPTICS order = %v", o.Order)
	}
}

func TestOpticsReachabilityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := threeBlobs(rng)
	o := Optics(pts, 300, 5, exec.Options{})
	seen := make([]bool, len(pts))
	for _, i := range o.Order {
		if seen[i] {
			t.Fatal("OPTICS order repeats a point")
		}
		seen[i] = true
	}
	// Core distance of a core point is at most maxEps; reachability of
	// any reached point is at least the core distance of some core.
	for i := range pts {
		if !math.IsInf(o.CoreDist[i], 1) && o.CoreDist[i] > 300 {
			t.Fatalf("core distance %v exceeds maxEps", o.CoreDist[i])
		}
		if !math.IsInf(o.Reach[i], 1) && o.Reach[i] > 300+1e-9 {
			t.Fatalf("reachability %v exceeds maxEps", o.Reach[i])
		}
	}
}

func TestMeanShiftThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := threeBlobs(rng)
	r := MeanShift(pts, 150, index.KindGrid)
	if r.NumClusters != 3 {
		t.Fatalf("MeanShift clusters = %d, want 3", r.NumClusters)
	}
	if !sameCluster(r.Result, 0, 49) || sameCluster(r.Result, 0, 50) {
		t.Error("MeanShift mis-assigned blob membership")
	}
	// Modes near true centers.
	pr := geo.NewProjection(origin)
	for _, m := range r.Modes {
		mm := pr.ToMeters(m)
		best := math.Inf(1)
		for _, tc := range []geo.Meters{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 0, Y: 1000}} {
			if d := mm.Dist(tc); d < best {
				best = d
			}
		}
		if best > 60 {
			t.Fatalf("mode %v is %.1f m from nearest truth center", m, best)
		}
	}
}

func TestMeanShiftSingleBlobOneCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := blob(rng, 80, 0, 0, 30)
	r := MeanShift(pts, 200, index.KindGrid)
	if r.NumClusters != 1 {
		t.Fatalf("MeanShift single blob clusters = %d, want 1", r.NumClusters)
	}
}

func TestMeanShiftDegenerate(t *testing.T) {
	if r := MeanShift(nil, 100, index.KindGrid); len(r.Labels) != 0 {
		t.Error("empty MeanShift should return no labels")
	}
	r := MeanShift([]geo.Point{origin}, 0, index.KindGrid)
	if r.Labels[0] != Noise {
		t.Error("bandwidth=0 should label noise")
	}
}

func TestMembersPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := blob(rng, 60, 0, 0, 300)
		r := DBSCAN(pts, 50, 3, exec.Options{})
		members := r.Members()
		total := 0
		for _, m := range members {
			total += len(m)
		}
		return total+r.NoiseCount() == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDBSCAN1k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var pts []geo.Point
	for c := 0; c < 10; c++ {
		pts = append(pts, blob(rng, 100, float64(c)*600, float64(c%3)*700, 40)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 80, 5, exec.Options{})
	}
}

func BenchmarkOptics1k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var pts []geo.Point
	for c := 0; c < 10; c++ {
		pts = append(pts, blob(rng, 100, float64(c)*600, float64(c%3)*700, 40)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optics(pts, 200, 5, exec.Options{})
	}
}

func BenchmarkMeanShift300(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := threeBlobs(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeanShift(pts, 150, index.KindGrid)
	}
}

func TestOpticsExtractLeavesSeparatesAdjacentBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Two tight blobs only 150 m apart: a single global cut tends to
	// merge them; per-cluster extraction must keep them separate.
	pts := blob(rng, 60, 0, 0, 12)
	pts = append(pts, blob(rng, 60, 150, 0, 12)...)
	r := Optics(pts, 500, 10, exec.Options{}).ExtractLeaves(10)
	if r.NumClusters != 2 {
		t.Fatalf("ExtractLeaves clusters = %d, want 2", r.NumClusters)
	}
	// Majority vote per blob: the two dominant labels must differ. (A
	// few boundary points may straggle to the other side, which is
	// inherent to density ordering.)
	dominant := func(lo, hi int) int {
		counts := map[int]int{}
		for i := lo; i < hi; i++ {
			if r.Labels[i] >= 0 {
				counts[r.Labels[i]]++
			}
		}
		best, bestN := Noise, 0
		for l, n := range counts {
			if n > bestN {
				best, bestN = l, n
			}
		}
		if bestN < (hi-lo)*3/4 {
			t.Fatalf("blob [%d,%d) has no dominant cluster: %v", lo, hi, counts)
		}
		return best
	}
	if dominant(0, 60) == dominant(60, 120) {
		t.Fatal("adjacent blobs merged")
	}
}

func TestOpticsExtractLeavesSingleBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := blob(rng, 80, 0, 0, 25)
	r := Optics(pts, 500, 10, exec.Options{}).ExtractLeaves(10)
	if r.NumClusters != 1 {
		t.Fatalf("single blob leaves = %d, want 1", r.NumClusters)
	}
	if r.NoiseCount() > 8 {
		t.Fatalf("too much noise: %d", r.NoiseCount())
	}
}

func TestOpticsExtractLeavesSubMinPtsIsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := blob(rng, 5, 0, 0, 10) // below minPts
	r := Optics(pts, 500, 10, exec.Options{}).ExtractLeaves(10)
	if r.NumClusters != 0 {
		t.Fatalf("clusters = %d, want 0", r.NumClusters)
	}
	for _, l := range r.Labels {
		if l != Noise {
			t.Fatal("sub-minPts points must be noise")
		}
	}
}

func TestQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		k := rng.Intn(n)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if got := quickselect(append([]float64(nil), vals...), k); got != sorted[k] {
			t.Fatalf("quickselect(%v, %d) = %v, want %v", vals, k, got, sorted[k])
		}
	}
}

func TestQuickselectDuplicates(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	for k := 0; k < 5; k++ {
		if got := quickselect(append([]float64(nil), vals...), k); got != 5 {
			t.Fatalf("quickselect dup k=%d = %v", k, got)
		}
	}
}

// TestKeepSmallestMatchesSort offers every value to keepSmallest and
// checks that the heap root is the k-th smallest by sort, bit for bit,
// and agrees with quickselect: random values with and without
// duplicates, all-equal values, k=1 and k=len.
func TestKeepSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var h []float64
	check := func(vals []float64, k int) {
		t.Helper()
		h = h[:0]
		for _, v := range vals {
			h = keepSmallest(h, v, k)
		}
		if len(h) != k {
			t.Fatalf("heap of %d values at k=%d holds %d", len(vals), k, len(h))
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := sorted[k-1]
		if math.Float64bits(h[0]) != math.Float64bits(want) {
			t.Fatalf("keepSmallest(%v, k=%d) = %v, sort says %v", vals, k, h[0], want)
		}
		if q := quickselect(append([]float64(nil), vals...), k-1); q != h[0] {
			t.Fatalf("keepSmallest(%v, k=%d) = %v, quickselect says %v", vals, k, h[0], q)
		}
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 3 {
			case 0:
				vals[i] = rng.Float64() * 1e4
			case 1:
				vals[i] = float64(rng.Intn(5)) // heavy duplicates
			default:
				vals[i] = 7.25 // all equal
			}
		}
		check(vals, 1)
		check(vals, n)
		check(vals, 1+rng.Intn(n))
	}
	// Values arriving in ascending and descending order.
	asc := make([]float64, 40)
	for i := range asc {
		asc[i] = float64(i) * 0.5
	}
	desc := append([]float64(nil), asc...)
	slices.Reverse(desc)
	for k := 1; k <= len(asc); k++ {
		check(asc, k)
		check(desc, k)
	}
}

func TestExtractLeavesLabelsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := threeBlobs(rng)
	r := Optics(pts, 500, 10, exec.Options{}).ExtractLeaves(10)
	// Labels within [Noise, NumClusters); every cluster non-empty.
	seen := make(map[int]int)
	for _, l := range r.Labels {
		if l < Noise || l >= r.NumClusters {
			t.Fatalf("label %d out of range", l)
		}
		if l >= 0 {
			seen[l]++
		}
	}
	if len(seen) != r.NumClusters {
		t.Fatalf("declared %d clusters, populated %d", r.NumClusters, len(seen))
	}
	for l, n := range seen {
		if n < 10 {
			t.Fatalf("cluster %d has %d members, below minPts", l, n)
		}
	}
}

// TestOpticsParallelDeterminism pins the OPTICS ordering, reachability
// plot and core distances as bit-identical for any worker budget,
// because the mined pattern set downstream is gated on exact equality.
func TestOpticsParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := threeBlobs(rng)
	pts = append(pts, blob(rng, 30, 500, 500, 400)...) // sparse bridge

	ref := Optics(pts, 300, 5, exec.Options{Workers: 1})
	for _, opt := range []exec.Options{
		{Workers: 8},
		{Workers: 3},
		{Workers: 8},
	} {
		got := Optics(pts, 300, 5, opt)
		if len(got.Order) != len(ref.Order) {
			t.Fatalf("workers=%d: order length %d != %d", opt.Workers, len(got.Order), len(ref.Order))
		}
		for i := range ref.Order {
			if got.Order[i] != ref.Order[i] {
				t.Fatalf("workers=%d: Order[%d] = %d, want %d", opt.Workers, i, got.Order[i], ref.Order[i])
			}
		}
		for i := range ref.Reach {
			if math.Float64bits(got.Reach[i]) != math.Float64bits(ref.Reach[i]) {
				t.Fatalf("workers=%d: Reach[%d] = %v, want %v", opt.Workers, i, got.Reach[i], ref.Reach[i])
			}
			if math.Float64bits(got.CoreDist[i]) != math.Float64bits(ref.CoreDist[i]) {
				t.Fatalf("workers=%d: CoreDist[%d] = %v, want %v", opt.Workers, i, got.CoreDist[i], ref.CoreDist[i])
			}
		}
	}

	// Repeated runs must not leak state between invocations.
	opt := exec.Options{Workers: 4}
	for run := 0; run < 3; run++ {
		got := Optics(pts, 300, 5, opt)
		for i := range ref.Reach {
			if math.Float64bits(got.Reach[i]) != math.Float64bits(ref.Reach[i]) {
				t.Fatalf("run %d: pooled Reach[%d] diverged", run, i)
			}
		}
	}
}
