package geo

import (
	"math"
	"math/rand"
	"testing"
)

// TestProjectAllMatchesToMetersExactly is the batch-projection property
// test: for random corpora across city-scale, country-scale and
// high-latitude extents, ProjectAll must reproduce the per-point
// ToMeters result bit for bit — not approximately — because the packed
// index backends and OPTICS substitute one for the other and the mined
// pattern set is gated on bit-identical output.
func TestProjectAllMatchesToMetersExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name             string
		oLon, oLat       float64
		spanLon, spanLat float64
	}{
		{"city", 139.7, 35.68, 0.3, 0.3},
		{"country", 10.0, 51.0, 8.0, 6.0},
		{"high-lat", 18.95, 69.65, 2.0, 1.0},
		{"southern", -58.4, -72.0, 3.0, 1.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := make([]Point, 500)
			for i := range pts {
				pts[i] = Point{
					Lon: tc.oLon + (rng.Float64()-0.5)*tc.spanLon,
					Lat: tc.oLat + (rng.Float64()-0.5)*tc.spanLat,
				}
			}
			pr := NewProjection(Centroid(pts))
			lon := make([]float64, len(pts))
			lat := make([]float64, len(pts))
			for i, p := range pts {
				lon[i], lat[i] = p.Lon, p.Lat
			}
			x := make([]float64, len(pts))
			y := make([]float64, len(pts))
			pr.ProjectAll(x, y, lon, lat)
			for i, p := range pts {
				m := pr.ToMeters(p)
				if math.Float64bits(x[i]) != math.Float64bits(m.X) ||
					math.Float64bits(y[i]) != math.Float64bits(m.Y) {
					t.Fatalf("point %d: ProjectAll (%v, %v) != ToMeters (%v, %v)",
						i, x[i], y[i], m.X, m.Y)
				}
			}
		})
	}
}

// TestPackedPointsRoundTrip pins the Pack/At/Centroid/LatBounds
// contract: packing is a pure layout change, every derived value must
// match the []Point path exactly.
func TestPackedPointsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 257)
	for i := range pts {
		pts[i] = Point{Lon: -0.1 + rng.Float64()*0.4, Lat: 51.4 + rng.Float64()*0.3}
	}
	pp := Pack(pts)
	if pp.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", pp.Len(), len(pts))
	}
	for i, p := range pts {
		if pp.At(i) != p {
			t.Fatalf("At(%d) = %v, want %v", i, pp.At(i), p)
		}
	}
	want := Centroid(pts)
	got := pp.Centroid()
	if math.Float64bits(got.Lon) != math.Float64bits(want.Lon) ||
		math.Float64bits(got.Lat) != math.Float64bits(want.Lat) {
		t.Fatalf("packed centroid %v != %v", got, want)
	}
	minLat, maxLat := pp.LatBounds()
	r := BoundingRect(pts)
	if minLat != r.Min.Lat || maxLat != r.Max.Lat {
		t.Fatalf("LatBounds = (%v, %v), want (%v, %v)", minLat, maxLat, r.Min.Lat, r.Max.Lat)
	}
}

// TestPackedProjectMatchesProjection checks that Project both records
// the projection and produces per-point-identical planar coordinates,
// and that EnsureProjected is idempotent.
func TestPackedProjectMatchesProjection(t *testing.T) {
	pts := []Point{{Lon: 2.35, Lat: 48.85}, {Lon: 2.29, Lat: 48.86}, {Lon: 2.40, Lat: 48.83}}
	pp := Pack(pts)
	if pp.Projected() {
		t.Fatal("fresh pack must not be projected")
	}
	pr := pp.EnsureProjected()
	if pr.Origin() != Centroid(pts) {
		t.Fatalf("projection origin %v, want centroid %v", pr.Origin(), Centroid(pts))
	}
	for i, p := range pts {
		m := pr.ToMeters(p)
		if math.Float64bits(pp.X[i]) != math.Float64bits(m.X) ||
			math.Float64bits(pp.Y[i]) != math.Float64bits(m.Y) {
			t.Fatalf("point %d planar mismatch", i)
		}
	}
	// Idempotent: a second EnsureProjected keeps the same projection.
	if pp.EnsureProjected() != pr {
		t.Fatal("EnsureProjected re-projected an already-projected store")
	}
	// Empty store: projection anchors at the zero point.
	empty := Pack(nil)
	if got := empty.EnsureProjected().Origin(); got != (Point{}) {
		t.Fatalf("empty store origin %v", got)
	}
}

// TestPackedAppend pins the append-growth contract the incremental CSD
// maintainer depends on: appended points get the next ids, an already-
// projected store projects the tail under the unchanged origin with
// bit-identical planar coordinates to a from-scratch projection of the
// grown set, and the old points' bits never move.
func TestPackedAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mk := func(n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Lon: 121.3 + rng.Float64()*0.4, Lat: 31.0 + rng.Float64()*0.3}
		}
		return pts
	}
	base, tail := mk(100), mk(37)

	pp := Pack(base)
	origin := pp.Centroid()
	pr := pp.Project(origin)
	oldX := append([]float64(nil), pp.X...)
	pp.Append(tail)

	if pp.Len() != len(base)+len(tail) {
		t.Fatalf("Len = %d, want %d", pp.Len(), len(base)+len(tail))
	}
	for i, p := range tail {
		if pp.At(len(base)+i) != p {
			t.Fatalf("appended point %d misplaced", i)
		}
	}
	if !pp.Projected() || pp.Proj() != pr {
		t.Fatal("Append changed the store's projection")
	}
	for i := range oldX {
		if math.Float64bits(pp.X[i]) != math.Float64bits(oldX[i]) {
			t.Fatalf("old planar bits moved at %d", i)
		}
	}
	// The grown store equals a fresh projection of the union at the
	// same origin, bit for bit.
	union := Pack(append(append([]Point(nil), base...), tail...))
	union.Project(origin)
	for i := 0; i < pp.Len(); i++ {
		if math.Float64bits(pp.X[i]) != math.Float64bits(union.X[i]) ||
			math.Float64bits(pp.Y[i]) != math.Float64bits(union.Y[i]) {
			t.Fatalf("planar mismatch at %d after append", i)
		}
	}
	// Appending to an unprojected store leaves it unprojected.
	lazy := Pack(base)
	lazy.Append(tail)
	if lazy.Projected() {
		t.Fatal("Append projected an unprojected store")
	}
	if lazy.Len() != pp.Len() {
		t.Fatalf("lazy Len = %d, want %d", lazy.Len(), pp.Len())
	}
}
