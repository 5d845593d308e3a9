package index

import (
	"math/rand"
	"testing"

	"csdm/internal/geo"
)

// packedCorpora are the property-test corpora for the packed path:
// city-scale, country-scale and high-latitude extents, the regimes where
// projection distortion and the planar fast path diverge most.
var packedCorpora = []struct {
	name   string
	center geo.Point
	extent float64
}{
	{"city", geo.Point{Lon: 121.47, Lat: 31.23}, 3e3},
	{"country", geo.Point{Lon: 10.0, Lat: 51.0}, 300e3},
	{"high-lat", geo.Point{Lon: 18.95, Lat: 69.65}, 120e3},
	{"southern", geo.Point{Lon: -68.3, Lat: -72.0}, 80e3},
}

// TestPackedConformance is the packed-path property test: for every
// backend, an index built through NewPacked must return the same IDs in
// the same order as one built through New over the identical points —
// not merely the same set, because downstream float accumulations
// depend on result order — and both must agree with the brute-force
// spherical reference. Query centers range up to 2.5× outside the
// built extent so the out-of-extent degradation paths are covered too.
func TestPackedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, corpus := range packedCorpora {
		t.Run(corpus.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				n := 80 + rng.Intn(200)
				pts := randomPointsAt(rng, corpus.center, n, corpus.extent)
				radius := (0.1 + rng.Float64()*0.6) * corpus.extent
				for _, kind := range backendKinds {
					ref := New(kind, pts, radius)
					packed := NewPacked(kind, geo.Pack(pts), radius)
					if packed.Len() != ref.Len() {
						t.Fatalf("%s: packed Len %d != %d", kind, packed.Len(), ref.Len())
					}
					for q := 0; q < 8; q++ {
						qc := randomPointsAt(rng, corpus.center, 1, corpus.extent*2.5)[0]
						want := ref.Within(qc, radius)
						got := packed.Within(qc, radius)
						if !equalIDs(got, want) {
							t.Fatalf("%s trial %d: packed Within(%v, %.0f) order/set mismatch:\ngot  %v\nwant %v",
								kind, trial, qc, radius, got, want)
						}
						brute := sortedCopy(bruteWithin(pts, qc, radius))
						if !equalIDs(sortedCopy(got), brute) {
							t.Fatalf("%s trial %d: packed Within(%v, %.0f) vs brute:\ngot  %v\nwant %v",
								kind, trial, qc, radius, sortedCopy(got), brute)
						}
					}
				}
			}
		})
	}
}

// TestPackedSharedStore checks that one projected store can back all
// three kinds at once: the first build projects at the centroid, later
// builds reuse the planar slices, and every backend still agrees with
// brute force. This is the sharing contract OPTICS relies on when it
// reads the planar coordinates out of the same store its index uses.
func TestPackedSharedStore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := randomPointsAt(rng, geo.Point{Lon: 139.7, Lat: 35.68}, 300, 5e3)
	pp := geo.Pack(pts)
	radius := 800.0

	idxs := make([]Index, len(backendKinds))
	for i, kind := range backendKinds {
		idxs[i] = NewPacked(kind, pp, radius)
	}
	if pp.Proj().Origin() != geo.Centroid(pts) {
		t.Fatalf("shared store projected at %v, want centroid %v", pp.Proj().Origin(), geo.Centroid(pts))
	}
	for q := 0; q < 12; q++ {
		qc := randomPointsAt(rng, geo.Point{Lon: 139.7, Lat: 35.68}, 1, 7e3)[0]
		want := sortedCopy(bruteWithin(pts, qc, radius))
		for i, idx := range idxs {
			if got := sortedCopy(idx.Within(qc, radius)); !equalIDs(got, want) {
				t.Fatalf("%s over shared store: got %v, want %v", backendKinds[i], got, want)
			}
		}
	}
}

// TestPackedOutOfExtent pins the degradation path: queries far outside
// the built extent (including near-polar centers where no sound
// distortion band exists) must still agree with brute force for every
// backend on the packed path.
func TestPackedOutOfExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := randomPointsAt(rng, geo.Point{Lon: 24.0, Lat: 80.0}, 150, 200e3)
	radius := 500e3
	for _, kind := range backendKinds {
		idx := NewPacked(kind, geo.Pack(pts), radius)
		for _, qc := range []geo.Point{
			{Lon: 24.0, Lat: 89.9},
			{Lon: -156.0, Lat: 78.0},
			{Lon: 24.0, Lat: 40.0},
		} {
			want := sortedCopy(bruteWithin(pts, qc, radius))
			got := sortedCopy(idx.Within(qc, radius))
			if !equalIDs(got, want) {
				t.Fatalf("%s.Within(%v, %.0f): got %v, want %v", kind, qc, radius, got, want)
			}
		}
	}
}
