package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"csdm/internal/geo"
)

var origin = geo.Point{Lon: 121.47, Lat: 31.23}

// randomPoints scatters n points within about extent meters of origin.
func randomPoints(rng *rand.Rand, n int, extent float64) []geo.Point {
	pr := geo.NewProjection(origin)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = pr.ToPoint(geo.Meters{
			X: (rng.Float64()*2 - 1) * extent,
			Y: (rng.Float64()*2 - 1) * extent,
		})
	}
	return pts
}

// bruteWithin is the reference implementation of Within.
func bruteWithin(pts []geo.Point, c geo.Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if geo.Haversine(c, p) <= r {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(ids []int) []int {
	c := append([]int(nil), ids...)
	sort.Ints(c)
	return c
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var allKinds = []Kind{KindGrid, KindKDTree, KindRTree}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 500, 3000)
	pr := geo.NewProjection(origin)
	for _, kind := range allKinds {
		idx := New(kind, pts, 100)
		for trial := 0; trial < 50; trial++ {
			c := pr.ToPoint(geo.Meters{
				X: (rng.Float64()*2 - 1) * 3000,
				Y: (rng.Float64()*2 - 1) * 3000,
			})
			r := rng.Float64() * 800
			got := sortedCopy(idx.Within(c, r))
			want := sortedCopy(bruteWithin(pts, c, r))
			if !equalIDs(got, want) {
				t.Fatalf("%v Within trial %d: got %d ids, want %d", kind, trial, len(got), len(want))
			}
		}
	}
}

func TestWithinPropertyRandomConfigs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64, nRaw uint8, rRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		r := float64(rRaw % 1000)
		pts := randomPoints(rng, n, 1500)
		want := sortedCopy(bruteWithin(pts, origin, r))
		for _, kind := range allKinds {
			got := sortedCopy(New(kind, pts, 100).Within(origin, r))
			if !equalIDs(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, kind := range allKinds {
		idx := New(kind, nil, 100)
		if idx.Len() != 0 {
			t.Errorf("%v empty Len = %d", kind, idx.Len())
		}
		if got := idx.Within(origin, 100); got != nil {
			t.Errorf("%v empty Within = %v", kind, got)
		}
	}
}

func TestSinglePointIndex(t *testing.T) {
	pts := []geo.Point{origin}
	for _, kind := range allKinds {
		idx := New(kind, pts, 100)
		if got := idx.Within(origin, 1); len(got) != 1 || got[0] != 0 {
			t.Errorf("%v single Within = %v", kind, got)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geo.Point{origin, origin, origin, origin}
	for _, kind := range allKinds {
		idx := New(kind, pts, 100)
		if got := idx.Within(origin, 0); len(got) != 4 {
			t.Errorf("%v duplicates Within(r=0) = %d ids, want 4", kind, len(got))
		}
	}
}

func TestNegativeRadiusAndZeroK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 20, 500)
	for _, kind := range allKinds {
		idx := New(kind, pts, 100)
		if got := idx.Within(origin, -5); got != nil {
			t.Errorf("%v Within(r<0) = %v, want nil", kind, got)
		}
	}
}

func TestClusteredDataCorrectness(t *testing.T) {
	// Heavily skewed data: one dense blob plus far-flung outliers, a
	// worst case for grids.
	rng := rand.New(rand.NewSource(5))
	pr := geo.NewProjection(origin)
	var pts []geo.Point
	for i := 0; i < 300; i++ {
		pts = append(pts, pr.ToPoint(geo.Meters{
			X: rng.NormFloat64() * 20,
			Y: rng.NormFloat64() * 20,
		}))
	}
	for i := 0; i < 10; i++ {
		pts = append(pts, pr.ToPoint(geo.Meters{
			X: (rng.Float64()*2 - 1) * 20000,
			Y: (rng.Float64()*2 - 1) * 20000,
		}))
	}
	for _, kind := range allKinds {
		idx := New(kind, pts, 100)
		for _, r := range []float64{10, 50, 1000, 30000} {
			got := sortedCopy(idx.Within(origin, r))
			want := sortedCopy(bruteWithin(pts, origin, r))
			if !equalIDs(got, want) {
				t.Fatalf("%v clustered Within(r=%v): got %d, want %d", kind, r, len(got), len(want))
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindGrid.String() != "grid" || KindKDTree.String() != "kdtree" || KindRTree.String() != "rtree" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown Kind should stringify to unknown")
	}
}

func benchmarkWithin(b *testing.B, kind Kind, n int) {
	rng := rand.New(rand.NewSource(42))
	pts := randomPoints(rng, n, 10000)
	idx := New(kind, pts, 100)
	queries := randomPoints(rng, 256, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Within(queries[i%len(queries)], 100)
	}
}

func BenchmarkGridWithin10k(b *testing.B)   { benchmarkWithin(b, KindGrid, 10000) }
func BenchmarkKDTreeWithin10k(b *testing.B) { benchmarkWithin(b, KindKDTree, 10000) }
func BenchmarkRTreeWithin10k(b *testing.B)  { benchmarkWithin(b, KindRTree, 10000) }

func benchmarkBuild(b *testing.B, kind Kind, n int) {
	rng := rand.New(rand.NewSource(42))
	pts := randomPoints(rng, n, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(kind, pts, 100)
	}
}

func BenchmarkGridBuild10k(b *testing.B)   { benchmarkBuild(b, KindGrid, 10000) }
func BenchmarkKDTreeBuild10k(b *testing.B) { benchmarkBuild(b, KindKDTree, 10000) }
func BenchmarkRTreeBuild10k(b *testing.B)  { benchmarkBuild(b, KindRTree, 10000) }
