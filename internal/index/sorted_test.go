package index

import (
	"math/rand"
	"slices"
	"testing"

	"csdm/internal/geo"
)

// TestWithinSortedAppendIsSortedWithinAppend pins the ordered range
// query: on every backend, WithinSortedAppend must equal WithinAppend
// followed by an ascending sort of the appended tail, and must leave a
// non-empty caller prefix untouched. The cases reach every grid path:
// the dense table (few runs merged, and more than maxRuns sorted), a
// sparse grid both per key and by map sweep, the exact pole fallback,
// and an empty index.
func TestWithinSortedAppendIsSortedWithinAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var wide, pole []geo.Point
	for i := 0; i < 400; i++ {
		wide = append(wide, geo.Point{Lon: 115 + rng.Float64()*10, Lat: 25 + rng.Float64()*10})
	}
	for i := 0; i < 150; i++ {
		pole = append(pole, geo.Point{Lon: -80 + rng.Float64()*160, Lat: 89.9 + rng.Float64()*0.09})
	}
	cases := []struct {
		name    string
		pts     []geo.Point
		hint    float64
		radii   []float64
		sparse  bool
		queries []geo.Point
	}{
		{name: "dense", pts: randomPoints(rng, 3000, 2000), hint: 100,
			radii: []float64{0, 30, 100, 150, 1500}, queries: randomPoints(rng, 40, 2200)},
		{name: "sparse", pts: wide, hint: 10, sparse: true,
			radii: []float64{30, 5e3, 5e4, 5e5}, queries: wide[:40]},
		{name: "pole", pts: pole, hint: 100,
			radii: []float64{2e3, 10e3, 60e3}, queries: pole[:20]},
		{name: "empty", hint: 100,
			radii: []float64{100}, queries: []geo.Point{origin}},
	}
	for _, tc := range cases {
		for _, kind := range backendKinds {
			idx := New(kind, tc.pts, tc.hint)
			if g, ok := idx.(*Grid); ok && (g.sparse != nil) != tc.sparse {
				t.Fatalf("%s: grid sparse = %v, want %v", tc.name, g.sparse != nil, tc.sparse)
			}
			var buf []int
			for _, q := range tc.queries {
				for _, r := range tc.radii {
					want := idx.WithinAppend(q, r, []int{-7, 5, -8})
					slices.Sort(want[3:])
					buf = append(buf[:0], -7, 5, -8)
					buf = idx.WithinSortedAppend(q, r, buf)
					if !slices.Equal(buf, want) {
						t.Fatalf("%s/%s: WithinSortedAppend(%v, %g) = %v, want %v", tc.name, kind, q, r, buf, want)
					}
				}
			}
		}
	}
}

// TestWithinSortedAppendWarmGridAllocs: once the caller's buffer has
// grown, a grid query that merges cell runs allocates nothing.
func TestWithinSortedAppendWarmGridAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := NewGrid(randomPoints(rng, 5000, 1500), 100)
	queries := randomPoints(rng, 16, 1200)
	var buf []int
	for _, q := range queries {
		buf = g.WithinSortedAppend(q, 100, buf[:0])
	}
	if len(buf) < 2 {
		t.Fatalf("query hit %d points; the fixture must exercise the merge", len(buf))
	}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.WithinSortedAppend(queries[k%len(queries)], 100, buf[:0])
		k++
	})
	if allocs != 0 {
		t.Fatalf("warm WithinSortedAppend allocates %v times per query, want 0", allocs)
	}
}
