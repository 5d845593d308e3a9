package index

import (
	"math/rand"
	"testing"

	"csdm/internal/geo"
)

// TestGridSparseFallback exercises the sparse-map path: a continental
// extent with small cells overflows the dense cell table.
func TestGridSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Points spread over ~10° of longitude/latitude with 10 m cells:
	// ≈ (1.1e6/10)² cells, far beyond maxDenseCells.
	var pts []geo.Point
	for i := 0; i < 400; i++ {
		pts = append(pts, geo.Point{
			Lon: 115 + rng.Float64()*10,
			Lat: 25 + rng.Float64()*10,
		})
	}
	g := NewGrid(pts, 10)
	if g.sparse == nil {
		t.Fatal("expected the sparse cell map to be used")
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

// TestGridDensePathUsed confirms city-scale data stays on the dense
// counting-sort table.
func TestGridDensePathUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 200, 5000)
	g := NewGrid(pts, 100)
	if g.cellStart == nil {
		t.Fatal("expected the dense cell table for city-scale data")
	}
	total := 0
	for c := 0; c+1 < len(g.cellStart); c++ {
		total += g.cellStart[c+1] - g.cellStart[c]
	}
	if total != len(pts) {
		t.Fatalf("dense table holds %d ids, want %d", total, len(pts))
	}
}
