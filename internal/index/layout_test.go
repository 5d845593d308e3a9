package index

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"csdm/internal/geo"
)

// layouts builds pts three times at one cell size, once per cell table
// layout: direct, ranked and listed.
func layouts(pts []geo.Point, cellSize float64) map[string]*Grid {
	return map[string]*Grid{
		"direct": newGridPacked(geo.Pack(pts), cellSize, math.MaxInt, math.MaxInt),
		"ranked": newGridPacked(geo.Pack(pts), cellSize, 0, math.MaxInt),
		"listed": newGridPacked(geo.Pack(pts), cellSize, 0, 0),
	}
}

// layout names the layout of g's cell table.
func layout(g *Grid) string {
	switch {
	case g.occ != nil:
		return "ranked"
	case g.keys != nil:
		return "listed"
	}
	return "direct"
}

// tableBytes is the size of g's cell table.
func tableBytes(g *Grid) int {
	return 4*len(g.ids) + 4*len(g.start) + 8*len(g.occ) + 4*len(g.occRank) + 8*len(g.keys)
}

// cellMajor returns ids sorted by (cell key, id), the order of a planar
// grid query.
func cellMajor(g *Grid, ids []int) []int {
	key := func(id int) int { return g.cellKey(g.pp.X[id], g.pp.Y[id]) }
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}

// TestGridSparseFallback exercises the listed table: a continental
// extent with small cells holds far more cells than the direct or the
// ranked layout's budget for its points.
func TestGridSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Points spread over ~10° of longitude/latitude with 10 m cells:
	// ≈ (1.1e6/10)² cells, far beyond rankedPerPoint·n.
	var pts []geo.Point
	for i := 0; i < 400; i++ {
		pts = append(pts, geo.Point{
			Lon: 115 + rng.Float64()*10,
			Lat: 25 + rng.Float64()*10,
		})
	}
	g := NewGrid(pts, 10)
	if layout(g) != "listed" {
		t.Fatalf("got a %s table, want the listed one", layout(g))
	}
	if len(g.keys) > len(pts) || len(g.start) != len(g.keys)+1 || !slices.IsSorted(g.keys) {
		t.Fatalf("table holds %d keys (sorted %v) and %d starts for %d points",
			len(g.keys), slices.IsSorted(g.keys), len(g.start), len(pts))
	}
	// Correctness against brute force.
	for trial := 0; trial < 30; trial++ {
		q := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 50000
		got := sortedCopy(g.Within(q, r))
		want := sortedCopy(bruteWithin(pts, q, r))
		if !equalIDs(got, want) {
			t.Fatalf("sparse Within mismatch: got %d, want %d ids", len(got), len(want))
		}
	}
}

// TestGridDensePathUsed confirms city-scale data stays on the direct
// table, one slot per cell of the extent, and that a wider extent of
// mostly empty cells, like an ε_p grid's, gets the ranked one.
func TestGridDensePathUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 2000, 5000)
	g := NewGrid(pts, 100)
	if layout(g) != "direct" {
		t.Fatalf("got a %s table for city-scale data, want the direct one", layout(g))
	}
	if len(g.start) != g.cols*g.rows+1 {
		t.Fatalf("direct table has %d starts for %d cells", len(g.start), g.cols*g.rows)
	}
	total := 0
	for c := 0; c+1 < len(g.start); c++ {
		total += len(g.run(c, c+1))
	}
	if total != len(pts) {
		t.Fatalf("direct table holds %d ids, want %d", total, len(pts))
	}
	if g := NewGrid(pts, 30); layout(g) != "ranked" {
		t.Fatalf("got a %s table for %d points over %d cells, want the ranked one",
			layout(g), len(pts), g.cols*g.rows)
	}
}

// TestGridSparseOrder pins the listed sweep's order: a query whose box
// covers more cells than the table holds walks the occupied cells, and
// repeated queries must return one order, the ids sorted by (cell key,
// id) as the row walk returns them. A view holding every point must
// return the same order.
func TestGridSparseOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	center := geo.Point{Lon: 120, Lat: 30}
	pts := randomPointsAt(rng, center, 60, 3000)
	for i := 0; i < 8; i++ {
		pts = append(pts, geo.Point{Lon: 115 + rng.Float64()*10, Lat: 25 + rng.Float64()*10})
	}
	g := NewGrid(pts, 10)
	if layout(g) != "listed" {
		t.Fatalf("got a %s table, want the listed one", layout(g))
	}
	const radius = 5000
	want := cellMajor(g, bruteWithin(pts, center, radius))
	if len(want) < 30 {
		t.Fatalf("query holds %d points, want a crowd", len(want))
	}
	var v GridView
	v.Restrict(g, func(int) bool { return true })
	for call := 0; call < 50; call++ {
		if got := g.Within(center, radius); !slices.Equal(got, want) {
			t.Fatalf("call %d: Within = %v, want %v", call, got, want)
		}
		if got := v.WithinAppend(center, radius, nil); !slices.Equal(got, want) {
			t.Fatalf("call %d: view WithinAppend = %v, want %v", call, got, want)
		}
	}
}

// TestGridOrderIsCellMajor pins the order every grid query returns, on
// every layout: a planar query walking box rows, and one sweeping a
// listed table's cells, return the ids in ascending (cell key, id)
// order, and the exact fallback, near the pole or at a continent-scale
// radius, returns them in ascending id order. OPTICS's seed-queue ties
// follow this order, so it reaches the mined patterns.
func TestGridOrderIsCellMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	center := geo.Point{Lon: 121.5, Lat: 31.2}
	pts := randomPointsAt(rng, center, 400, 1500)
	pts = append(pts, randomPointsAt(rng, center, 8, 10000)...)
	var pole []geo.Point
	for i := 0; i < 120; i++ {
		pole = append(pole, geo.Point{Lon: -80 + rng.Float64()*160, Lat: 89.9 + rng.Float64()*0.09})
	}
	grids := layouts(pts, 30)
	// A 100 m query's box spans at most 9×9 cells of 30 m, fewer than
	// the occupied cells, so it walks rows; a 20 km box spans the whole
	// extent, far more cells than are occupied, so on the listed table
	// it sweeps.
	if n := len(grids["listed"].keys); n <= 81 {
		t.Fatalf("%d occupied cells, want more than a 100 m box spans", n)
	}
	for name, g := range grids {
		if layout(g) != name {
			t.Fatalf("layouts built a %s table for %s", layout(g), name)
		}
		for _, r := range []float64{100, 20000} {
			for _, q := range pts[:40] {
				want := cellMajor(g, bruteWithin(pts, q, r))
				if got := g.Within(q, r); !slices.Equal(got, want) {
					t.Fatalf("%s: Within(%v, %g) = %v, want %v", name, q, r, got, want)
				}
			}
		}
		if got, want := g.Within(center, 5e6), bruteWithin(pts, center, 5e6); !slices.Equal(got, want) {
			t.Fatalf("%s: continent-scale Within is not in ascending id order", name)
		}
	}
	for name, g := range layouts(pole, 30) {
		for _, q := range pole[:20] {
			want := bruteWithin(pole, q, 20000)
			if got := g.Within(q, 20000); !slices.Equal(got, want) {
				t.Fatalf("%s: pole Within(%v) = %v, want ascending %v", name, q, got, want)
			}
		}
	}
}

// TestGridLayoutsAgree builds the same points once per layout and
// requires WithinAppend, on the grid and on views of it, to agree
// element by element across random sets, cell sizes, radii from 0 to
// 5e6 m and masks, and to match brute force as a set.
func TestGridLayoutsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	radii := []float64{0, 5, 30, 100, 700, 4000, 5e4, 5e6}
	views := map[string]*GridView{"direct": {}, "ranked": {}, "listed": {}}
	var want, got []int
	for trial := 0; trial < 24; trial++ {
		n := rng.Intn(300)
		extent := 100 + rng.Float64()*8000
		var pts []geo.Point
		switch trial % 3 {
		case 0:
			pts = randomPoints(rng, n, extent)
		case 1:
			pts = randomPointsAt(rng, geo.Point{Lon: 25, Lat: 69}, n, extent)
		default:
			// Clusters with duplicates: many ids per cell.
			pts = randomPoints(rng, n/3, extent)
			pts = append(pts, pts...)
		}
		grids := layouts(pts, 5+rng.Float64()*200)
		mask := make([]bool, len(pts))
		for i := range mask {
			mask[i] = rng.Float64() < 0.6
		}
		for name, v := range views {
			v.Restrict(grids[name], func(id int) bool { return mask[id] })
		}
		queries := randomPoints(rng, 10, extent*1.3)
		if len(pts) > 0 {
			queries = append(queries, pts[rng.Intn(len(pts))])
		}
		for _, q := range queries {
			for _, r := range append(radii, rng.Float64()*extent) {
				want = grids["direct"].WithinAppend(q, r, want[:0])
				if brute := bruteWithin(pts, q, r); !equalIDs(sortedCopy(want), brute) {
					t.Fatalf("trial %d: WithinAppend(%v, %g) = %v, brute force %v", trial, q, r, want, brute)
				}
				for _, name := range []string{"ranked", "listed"} {
					if got = grids[name].WithinAppend(q, r, got[:0]); !slices.Equal(got, want) {
						t.Fatalf("trial %d: WithinAppend(%v, %g): %s %v, direct %v", trial, q, r, name, got, want)
					}
				}
				want = views["direct"].WithinAppend(q, r, want[:0])
				for _, name := range []string{"ranked", "listed"} {
					if got = views[name].WithinAppend(q, r, got[:0]); !slices.Equal(got, want) {
						t.Fatalf("trial %d: view WithinAppend(%v, %g): %s %v, direct %v", trial, q, r, name, got, want)
					}
				}
			}
		}
	}
}

// TestGridMemoryFollowsPoints holds a grid's memory to its points, not
// its extent: 1 000 points over ~30 km with 30 m cells span a million
// cells, a 16 MB table at 16 B per cell, but the grid may allocate
// only a few words per point. Across extents from a block to a
// continent, no cell table outgrows 4 B per id plus 64 B per point.
func TestGridMemoryFollowsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	pp := geo.Pack(randomPoints(rng, n, 15000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGridPacked(pp, 30)
	runtime.ReadMemStats(&after)
	if g.cols*g.rows < 500000 {
		t.Fatalf("grid spans %d×%d cells, want a ~30 km extent", g.cols, g.rows)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*n+1024); got > limit {
		t.Fatalf("NewGridPacked allocated %d B for %d points over %d cells, want at most %d",
			got, n, g.cols*g.rows, limit)
	}
	seen := map[string]bool{}
	for _, extent := range []float64{100, 1000, 3000, 30000, 3e5, 3e6} {
		for _, m := range []int{1, 10, 1000} {
			g := NewGrid(randomPoints(rng, m, extent), 30)
			seen[layout(g)] = true
			if got, limit := tableBytes(g), 68*m+1024; got > limit {
				t.Fatalf("%d points over %g m: a %s table of %d B, want at most %d",
					m, extent, layout(g), got, limit)
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("the extents reached only the %v layouts", seen)
	}
}

// gridSink keeps benchmarked builds from being optimized away.
var gridSink *Grid

// BenchmarkGridBuildCountry builds an ε_p grid over a country's POIs:
// 12 000 points in four city clusters ~15 km apart with 30 m cells, an
// extent of about a million mostly empty cells.
func BenchmarkGridBuildCountry(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var pts []geo.Point
	for _, c := range []geo.Point{{Lon: 121.4, Lat: 31.1}, {Lon: 121.55, Lat: 31.1}, {Lon: 121.4, Lat: 31.25}, {Lon: 121.55, Lat: 31.25}} {
		pts = append(pts, randomPointsAt(rng, c, 3000, 4000)...)
	}
	pp := geo.Pack(pts)
	pp.EnsureProjected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridSink = NewGridPacked(pp, 30)
	}
}
