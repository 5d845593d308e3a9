package index

import (
	"math/rand"
	"slices"
	"testing"

	"csdm/internal/geo"
)

// TestGridViewIsFilteredGrid pins the restricted view: for every mask,
// query and radius, the view's WithinAppend must equal the full grid's
// WithinAppend with the masked-out ids removed, element by element,
// and leave the caller's prefix untouched. The cases reach every grid
// path: the dense table at city scale and at high latitude, a sparse
// grid per key, the exact fallback (a continent-scale radius, and a
// hull touching the pole) and an empty grid. The sparse map sweep
// visits a map in its iteration order, which neither side defines, so
// at those radii the two answers are compared as sets. One view's
// storage serves every mask of every grid.
func TestGridViewIsFilteredGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var wide, pole []geo.Point
	for i := 0; i < 400; i++ {
		wide = append(wide, geo.Point{Lon: 115 + rng.Float64()*10, Lat: 25 + rng.Float64()*10})
	}
	for i := 0; i < 150; i++ {
		pole = append(pole, geo.Point{Lon: -80 + rng.Float64()*160, Lat: 89.9 + rng.Float64()*0.09})
	}
	highLat := randomPointsAt(rng, geo.Point{Lon: 25, Lat: 69}, 1500, 4000)
	cases := []struct {
		name    string
		pts     []geo.Point
		hint    float64
		radii   []float64
		setOnly []float64 // radii answered by the sparse map sweep
		queries []geo.Point
	}{
		{name: "dense", pts: randomPoints(rng, 3000, 2000), hint: 100,
			radii: []float64{0, 30, 100, 150, 1500, 5e6}, queries: randomPoints(rng, 30, 2200)},
		{name: "high-latitude", pts: highLat, hint: 100,
			radii: []float64{0, 100, 800, 5e6}, queries: highLat[:30]},
		{name: "sparse", pts: wide, hint: 10,
			radii: []float64{0, 30}, setOnly: []float64{5e4, 5e5}, queries: wide[:30]},
		{name: "pole", pts: pole, hint: 100,
			radii: []float64{0, 2e3, 60e3}, queries: pole[:20]},
		{name: "empty", hint: 100,
			radii: []float64{100}, queries: []geo.Point{origin}},
	}
	var v GridView
	var full, buf []int
	for _, tc := range cases {
		g := NewGrid(tc.pts, tc.hint)
		if (g.sparse != nil) != (tc.name == "sparse") {
			t.Fatalf("%s: grid sparse = %v", tc.name, g.sparse != nil)
		}
		n := len(tc.pts)
		masks := [][]bool{make([]bool, n), make([]bool, n)}
		for i := range masks[1] {
			masks[1][i] = true
		}
		for _, p := range []float64{0.05, 0.5, 0.9} {
			m := make([]bool, n)
			for i := range m {
				m[i] = rng.Float64() < p
			}
			masks = append(masks, m)
		}
		for mi, mask := range masks {
			v.Restrict(g, func(id int) bool { return mask[id] })
			for _, q := range tc.queries {
				for _, r := range append(tc.radii, tc.setOnly...) {
					full = g.WithinAppend(q, r, full[:0])
					want := []int{-7}
					for _, id := range full {
						if mask[id] {
							want = append(want, id)
						}
					}
					buf = v.WithinAppend(q, r, append(buf[:0], -7))
					got := buf
					if slices.Contains(tc.setOnly, r) {
						got = append([]int(nil), buf...)
						slices.Sort(got[1:])
						slices.Sort(want[1:])
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, mask %d: view WithinAppend(%v, %g) = %v, filtered grid = %v",
							tc.name, mi, q, r, got, want)
					}
				}
			}
		}
	}
}

// TestGridViewRestrictWarmAllocs holds a rebuild of a view of the same
// grid to zero allocations, on a dense and on a sparse grid.
func TestGridViewRestrictWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var wide []geo.Point
	for i := 0; i < 400; i++ {
		wide = append(wide, geo.Point{Lon: 115 + rng.Float64()*10, Lat: 25 + rng.Float64()*10})
	}
	for _, g := range []*Grid{NewGrid(randomPoints(rng, 3000, 2000), 100), NewGrid(wide, 10)} {
		mask := make([]bool, g.Len())
		keep := func(id int) bool { return mask[id] }
		var v GridView
		v.Restrict(g, keep)
		flip := 0
		allocs := testing.AllocsPerRun(20, func() {
			for i := range mask {
				mask[i] = (i+flip)%3 != 0
			}
			flip++
			v.Restrict(g, keep)
		})
		if allocs != 0 {
			t.Fatalf("sparse=%v: warm Restrict made %v allocations, want 0", g.sparse != nil, allocs)
		}
	}
}
