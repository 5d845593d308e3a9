package index

import (
	"math/rand"
	"testing"

	"csdm/internal/geo"
)

// backendKinds lists every Kind the factory can build, so conformance
// coverage automatically extends when a backend is added.
var backendKinds = []Kind{KindGrid, KindKDTree, KindRTree}

// TestBackendConformance cross-checks the three backends against each
// other on random point sets: for any query, Within must return the
// same id set, and Len the same count.
// The grid is built through the factory so the CellHint path is the
// one exercised, exactly as production call sites use it.
func TestBackendConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(400)
		extent := 200 + rng.Float64()*3000
		pts := randomPoints(rng, n, extent)
		radius := rng.Float64() * extent

		idxs := make([]Index, len(backendKinds))
		for i, kind := range backendKinds {
			idxs[i] = New(kind, pts, radius)
		}
		for _, idx := range idxs {
			if idx.Len() != n {
				t.Fatalf("trial %d: Len = %d, want %d", trial, idx.Len(), n)
			}
		}

		for q := 0; q < 10; q++ {
			center := randomPoints(rng, 1, extent*1.2)[0]
			want := sortedCopy(idxs[0].Within(center, radius))
			for i, idx := range idxs[1:] {
				got := sortedCopy(idx.Within(center, radius))
				if !equalIDs(got, want) {
					t.Fatalf("trial %d: Within(%v, %.1f): %s = %v, %s = %v",
						trial, center, radius, backendKinds[i+1], got, backendKinds[0], want)
				}
			}
		}
	}
}

// randomPointsAt scatters n points within about extent meters of c.
func randomPointsAt(rng *rand.Rand, c geo.Point, n int, extent float64) []geo.Point {
	pr := geo.NewProjection(c)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = pr.ToPoint(geo.Meters{
			X: (rng.Float64()*2 - 1) * extent,
			Y: (rng.Float64()*2 - 1) * extent,
		})
	}
	return pts
}

// TestBackendConformanceHighLatitude cross-checks all backends against
// brute force on high-latitude (|lat| ≥ 60°) and country-scale point
// sets with query centers up to 2.5× outside the built extent. At
// these latitudes the planar projection's longitude scale differs by
// percent-level factors across the extent, so any fixed planar
// accept/reject band (the pre-fix grid used ±0.5%) or any fixed planar
// pruning inflation (the pre-fix k-d tree used 1%) mis-classifies
// boundary points; the distortion bound must be derived from the built
// extent instead.
func TestBackendConformanceHighLatitude(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	centers := []geo.Point{
		{Lon: 24.94, Lat: 60.17},
		{Lon: 18.95, Lat: 69.65},
		{Lon: -68.3, Lat: -72.0},
		{Lon: 24.0, Lat: 80.0},
	}
	for ci, c := range centers {
		for trial := 0; trial < 4; trial++ {
			n := 100 + rng.Intn(150)
			extent := 50e3 + rng.Float64()*250e3 // country scale
			pts := randomPointsAt(rng, c, n, extent)
			radius := (0.2 + rng.Float64()) * extent
			for _, kind := range backendKinds {
				idx := New(kind, pts, radius)
				for q := 0; q < 6; q++ {
					qc := randomPointsAt(rng, c, 1, extent*2.5)[0]
					want := sortedCopy(bruteWithin(pts, qc, radius))
					got := sortedCopy(idx.Within(qc, radius))
					if !equalIDs(got, want) {
						t.Fatalf("center %d trial %d: %s.Within(%v, %.0f) missed/extra ids:\ngot  %v\nwant %v",
							ci, trial, kind, qc, radius, got, want)
					}
				}
			}
		}
	}
}

// TestBackendConformanceDistortionBoundary pins the exact failure mode
// of the old fixed ±0.5% planar band. The built extent spans lat 60°–
// 61°, anchoring the index projection near lat 60.5°, while query and
// candidates sit at lat 60°: planar distances there read ≈1.5% short of
// true (cos 60.5° / cos 60° ≈ 0.985), so a candidate at true distance
// 1.005r showed a planar distance ≈0.99r — inside the old fast-accept
// band, outside the circle. Candidates straddle the radius in 0.5%
// steps; every backend must classify each exactly as Haversine does.
func TestBackendConformanceDistortionBoundary(t *testing.T) {
	anchor := geo.Point{Lon: 25, Lat: 60}
	pr := geo.NewProjection(anchor)
	var pts []geo.Point
	// Extent-setting points at lat 61.
	for i := 0; i < 20; i++ {
		pts = append(pts, geo.Point{Lon: 24.41 + 0.053*float64(i), Lat: 61})
	}
	const r = 20000.0
	for _, f := range []float64{0.975, 0.985, 0.99, 0.995, 1.005, 1.01, 1.015, 1.025} {
		// A point f·r meters due east of the anchor: its true distance is
		// f·r to within curvature slack ~1e-5·r, far from the ±0.5% steps.
		pts = append(pts, pr.ToPoint(geo.Meters{X: r * f}))
	}
	want := sortedCopy(bruteWithin(pts, anchor, r))
	if len(want) == 0 || len(want) == len(pts) {
		t.Fatalf("degenerate construction: brute force found %d of %d", len(want), len(pts))
	}
	for _, kind := range backendKinds {
		idx := New(kind, pts, r)
		got := sortedCopy(idx.Within(anchor, r))
		if !equalIDs(got, want) {
			t.Errorf("%s.Within at distortion boundary = %v, want %v", kind, got, want)
		}
	}
}

// TestBackendConformanceNearPole exercises the exact-fallback paths: a
// point set close enough to the pole that no sound distortion bound
// exists (cos of the hull's extreme latitude under the floor), where
// every backend must degrade to exact spherical testing and still match
// brute force.
func TestBackendConformanceNearPole(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var pts []geo.Point
	for i := 0; i < 120; i++ {
		pts = append(pts, geo.Point{
			Lon: -80 + rng.Float64()*160,
			Lat: 89.9 + rng.Float64()*0.09,
		})
	}
	queries := []geo.Point{
		{Lon: 0, Lat: 89.95},
		{Lon: 60, Lat: 89.92},
		{Lon: -45, Lat: 89.5}, // below the set, still inside the cap region
	}
	for _, radius := range []float64{2e3, 10e3, 60e3} {
		for _, kind := range backendKinds {
			idx := New(kind, pts, radius)
			for _, qc := range queries {
				want := sortedCopy(bruteWithin(pts, qc, radius))
				got := sortedCopy(idx.Within(qc, radius))
				if !equalIDs(got, want) {
					t.Fatalf("%s.Within(%v, %.0f) near pole = %v, want %v", kind, qc, radius, got, want)
				}
			}
		}
	}
}

// TestWithinAppendMatchesWithin is the equivalence property of the
// buffered query path: for any query, WithinAppend must append exactly
// Within's id set after the caller's existing elements, leave the
// prefix intact, and stay correct when the same buffer is reused across
// queries of different sizes.
func TestWithinAppendMatchesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(rng, 300, 2000)
	for _, kind := range backendKinds {
		idx := New(kind, pts, 150)
		var buf []int
		for q := 0; q < 60; q++ {
			center := randomPoints(rng, 1, 2500)[0]
			radius := rng.Float64() * 500
			want := idx.Within(center, radius)
			buf = append(buf[:0], -7, -8) // sentinel prefix from "earlier" use
			got := idx.WithinAppend(center, radius, buf)
			if len(got) != len(want)+2 || got[0] != -7 || got[1] != -8 {
				t.Fatalf("%s: WithinAppend disturbed the prefix: got %v", kind, got)
			}
			if !equalIDs(sortedCopy(got[2:]), sortedCopy(want)) {
				t.Fatalf("%s: WithinAppend suffix %v != Within %v", kind, got[2:], want)
			}
			buf = got
		}
		if got := idx.WithinAppend(origin, -1, []int{42}); len(got) != 1 || got[0] != 42 {
			t.Errorf("%s: WithinAppend with negative radius = %v, want [42]", kind, got)
		}
	}
}

// TestNewGridTinyCellWideExtent is the overflow regression test: a 10°
// span with 0.1 mm cells wants ~10¹⁰ cells per axis, whose product
// overflows int64. The pre-fix constructor multiplied cols·rows before
// the dense-table check, so the wrapped (negative) product slipped past
// the threshold and the table allocation paniced. The fixed constructor
// grows the cell size to the per-axis cap and checks the axes before
// multiplying, landing in the sparse map.
func TestNewGridTinyCellWideExtent(t *testing.T) {
	pts := []geo.Point{
		{Lon: 20, Lat: 30},
		{Lon: 30, Lat: 40},
		{Lon: 25, Lat: 35},
	}
	g := NewGrid(pts, 1e-4)
	if g.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
	}
	for i, p := range pts {
		if got := sortedCopy(g.Within(p, 1000)); !equalIDs(got, []int{i}) {
			t.Errorf("Within(pts[%d], 1km) = %v, want [%d]", i, got, i)
		}
	}
	if got := sortedCopy(g.Within(geo.Point{Lon: 25, Lat: 35}, 2e6)); !equalIDs(got, []int{0, 1, 2}) {
		t.Errorf("wide Within = %v, want [0 1 2]", got)
	}
}

// TestBackendConformanceEdges pins the degenerate queries every backend
// must agree on: an empty point set and a zero radius.
func TestBackendConformanceEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 50, 500)

	for _, kind := range backendKinds {
		empty := New(kind, nil, 100)
		if empty.Len() != 0 {
			t.Errorf("%s: empty Len = %d, want 0", kind, empty.Len())
		}
		if got := empty.Within(origin, 1e6); len(got) != 0 {
			t.Errorf("%s: empty Within = %v, want none", kind, got)
		}

		idx := New(kind, pts, 0)
		// Radius 0 hits exactly the points coincident with the center:
		// the queried point itself, and nothing for an off-set center.
		if got := idx.Within(pts[7], 0); !equalIDs(sortedCopy(got), []int{7}) {
			t.Errorf("%s: Within(pts[7], 0) = %v, want [7]", kind, got)
		}
		off := geo.Point{Lon: origin.Lon + 1, Lat: origin.Lat + 1}
		if got := idx.Within(off, 0); len(got) != 0 {
			t.Errorf("%s: Within(off, 0) = %v, want none", kind, got)
		}
	}
}
