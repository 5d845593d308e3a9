package geo

import (
	"math"
	"math/rand"
	"testing"
)

// refWeight is Equation (2) written out from scratch — Haversine with
// per-pair cosines, then the Gaussian coefficient — sharing no code with
// HaversineCos, CosLat or GaussianKernel. The production kernel must
// reproduce it bit for bit: the cos(lat) column only moves where the
// cosines are computed, never what they are.
func refWeight(r3sigma float64, a, b Point) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(la1)*math.Cos(la2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	d := 2 * 6371000.0 * math.Asin(math.Sqrt(h))
	s := r3sigma / 3
	return 1 / (s * math.Sqrt(2*math.Pi)) * math.Exp(-d*d*(1/(2*s*s)))
}

// kernelRefPairs draws (center, neighbours) sets that cover both
// hemispheres, latitudes up to ±89.9°, neighbours across the
// antimeridian, and a neighbour identical to the center.
func kernelRefPairs(rng *rand.Rand) (centers []Point, near [][]Point) {
	for trial := 0; trial < 200; trial++ {
		c := Point{Lon: -180 + rng.Float64()*360, Lat: -89.9 + rng.Float64()*179.8}
		switch trial % 5 {
		case 0:
			c.Lon = 179.9995 // antimeridian: neighbours wrap to -180
		case 1:
			c.Lat = 89.9 * float64(1-2*(trial/5%2)) // ±89.9°
		}
		pts := []Point{c}
		for k := 0; k < 24; k++ {
			p := Point{Lon: c.Lon + (rng.Float64()-0.5)*0.004, Lat: c.Lat + (rng.Float64()-0.5)*0.002}
			if p.Lon > 180 {
				p.Lon -= 360
			}
			p.Lat = math.Max(-89.9, math.Min(89.9, p.Lat))
			pts = append(pts, p)
		}
		centers = append(centers, c)
		near = append(near, pts)
	}
	return centers, near
}

// TestKernelMatchesReference compares GaussianKernel.WeightCos, with the
// point's cosine read from the store's Cos column as the popularity
// fold reads it, with the inline reference by Float64bits, per pair and
// summed in ascending id order, on stores filled by Pack, by Append
// after a first fill (projected and not), and point by point through
// AppendPoint.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	centers, near := kernelRefPairs(rng)
	const r3sigma = 100.0
	k := NewGaussianKernel(r3sigma)
	for trial, c := range centers {
		pts := near[trial]
		cut := 1 + trial%len(pts)
		grown := Pack(pts[:cut])
		grown.Append(pts[cut:])
		projected := Pack(pts[:cut])
		projected.EnsureProjected()
		projected.Append(pts[cut:])
		single := &PackedPoints{}
		for _, p := range pts {
			single.AppendPoint(p)
		}
		stores := map[string]*PackedPoints{"pack": Pack(pts), "append": grown, "projected": projected, "point": single}
		for name, pp := range stores {
			if len(pp.Cos) != len(pts) {
				t.Fatalf("%s: Cos has %d entries for %d points", name, len(pp.Cos), len(pts))
			}
			var want, sum float64
			cosC := CosLat(c.Lat)
			for id, p := range pts {
				if got, w := math.Float64bits(pp.Cos[id]), math.Float64bits(math.Cos(p.Lat*math.Pi/180)); got != w {
					t.Fatalf("%s: Cos[%d] bits %x, want %x", name, id, got, w)
				}
				ref := refWeight(r3sigma, c, p)
				got := k.WeightCos(c, cosC, pp.At(id), pp.Cos[id])
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("%s: weight(%v, %v) = %v, reference %v", name, c, p, got, ref)
				}
				if got, ref := HaversineCos(p, pp.Cos[id], c, CosLat(c.Lat)), Haversine(p, c); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("%s: HaversineCos(%v, %v) = %v, Haversine %v", name, p, c, got, ref)
				}
				want += ref
				sum += got
			}
			if math.Float64bits(sum) != math.Float64bits(want) {
				t.Fatalf("%s: sum around %v = %v, reference %v", name, c, sum, want)
			}
		}
	}
}
