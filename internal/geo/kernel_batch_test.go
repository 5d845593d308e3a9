package geo

import (
	"math"
	"math/rand"
	"testing"
)

// checkWeights runs WeightsCos over ids and compares every entry with
// WeightCos on the same pair by Float64bits. dst is one entry longer
// than ids, and that entry must come back untouched.
func checkWeights(t *testing.T, name string, k GaussianKernel, pp *PackedPoints, ids []int, stay Point) {
	t.Helper()
	const sentinel = -1.5
	dst := make([]float64, len(ids)+1)
	dst[len(ids)] = sentinel
	cosStay := CosLat(stay.Lat)
	k.WeightsCos(dst, pp, ids, stay, cosStay)
	for i, id := range ids {
		want := k.WeightCos(pp.At(id), pp.Cos[id], stay, cosStay)
		if !sameBits(dst[i], want) {
			t.Fatalf("%s: weight %d (POI %v, stay %v) = %v (%#x), WeightCos %v (%#x)",
				name, i, pp.At(id), stay, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	if dst[len(ids)] != sentinel {
		t.Fatalf("%s: WeightsCos wrote past len(ids): %v", name, dst[len(ids)])
	}
}

// unclampedH is haversineH without its clamp, written from math.Sin.
func unclampedH(a, b Point) float64 {
	sinLat := math.Sin((b.Lat - a.Lat) * math.Pi / 180 / 2)
	sinLon := math.Sin((b.Lon - a.Lon) * math.Pi / 180 / 2)
	return sinLat*sinLat + CosLat(a.Lat)*CosLat(b.Lat)*sinLon*sinLon
}

// TestWeightsCosMatchesWeightCos checks the batched kernel bit for bit
// against the scalar one: on kernelRefPairs with the ids in ascending,
// reversed and repeated order, on coincident points (a zero half-angle
// takes math.Sin's fallback and a zero √h math.Asin's), on separations
// past the inline sine's first octant and the inline arcsine's domain,
// on antipodal pairs whose rounded haversine exceeds 1 and is clamped,
// and on an empty batch.
func TestWeightsCosMatchesWeightCos(t *testing.T) {
	k := NewGaussianKernel(100)
	rng := rand.New(rand.NewSource(53))
	centers, near := kernelRefPairs(rng)
	for trial, c := range centers {
		pp := Pack(near[trial])
		n := pp.Len()
		asc := make([]int, n)
		rev := make([]int, n)
		for i := range asc {
			asc[i] = i
			rev[i] = n - 1 - i
		}
		checkWeights(t, "ascending", k, pp, asc, c)
		checkWeights(t, "reversed", k, pp, rev, c)
		checkWeights(t, "repeated", k, pp, []int{0, n - 1, 0, n / 2, n / 2}, c)
	}

	stay := Point{Lon: 121.47, Lat: 31.23}
	coincident := Pack([]Point{stay, stay, {Lon: 0, Lat: 0}})
	checkWeights(t, "coincident", k, coincident, []int{0, 1}, stay)
	checkWeights(t, "origin", k, coincident, []int{2}, Point{})

	var far []Point
	for _, dLon := range []float64{90, 91, 120, 179.9, 180} {
		far = append(far, Point{Lon: stay.Lon - dLon, Lat: stay.Lat}, Point{Lon: stay.Lon, Lat: stay.Lat - dLon/2})
	}
	far = append(far, Point{Lon: stay.Lon - 180, Lat: -stay.Lat}, Point{Lon: stay.Lon, Lat: -89.9})
	farPP := Pack(far)
	ids := make([]int, farPP.Len())
	for i := range ids {
		ids[i] = i
		p := farPP.At(i)
		if d := Haversine(p, stay); d < 4e6 {
			t.Fatalf("far point %v is only %v m from the stay", p, d)
		}
	}
	checkWeights(t, "far", k, farPP, ids, stay)

	// Antipodal pairs near the equator: on some of them the unclamped
	// haversine rounds above 1, and the clamp decides the weight.
	clamped := 0
	var origins, antipodes []Point
	for i := 0; i < 2000; i++ {
		a := Point{Lon: (rng.Float64() - 0.5) * 360, Lat: (rng.Float64() - 0.5) * 2}
		lon := a.Lon + 180
		if lon > 180 {
			lon -= 360
		}
		b := Point{Lon: lon, Lat: -a.Lat}
		if unclampedH(a, b) > 1 {
			clamped++
		}
		origins = append(origins, a)
		antipodes = append(antipodes, b)
	}
	if clamped == 0 {
		t.Fatal("no antipodal pair reached the h > 1 clamp")
	}
	originPP := Pack(origins)
	for i, b := range antipodes {
		checkWeights(t, "antipodal", k, originPP, []int{i}, b)
	}

	checkWeights(t, "empty", k, farPP, nil, stay)
	k.WeightsCos(nil, farPP, nil, stay, CosLat(stay.Lat))
}

// BenchmarkKernelWeights compares one stay's weights to the POIs of a
// dense city block, 96 of them within R3σ as the popularity fold sees
// them, computed pair by pair through WeightCos and in one WeightsCos
// batch.
func BenchmarkKernelWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	stay := Point{Lon: 121.47, Lat: 31.23}
	pr := NewProjection(stay)
	pts := make([]Point, 96)
	ids := make([]int, len(pts))
	for i := range pts {
		r, th := 100*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		pts[i] = pr.ToPoint(Meters{X: r * math.Cos(th), Y: r * math.Sin(th)})
		ids[i] = i
	}
	pp := Pack(pts)
	k := NewGaussianKernel(100)
	cosStay := CosLat(stay.Lat)
	dst := make([]float64, len(ids))
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t, id := range ids {
				dst[t] = k.WeightCos(pp.At(id), pp.Cos[id], stay, cosStay)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.WeightsCos(dst, pp, ids, stay, cosStay)
		}
	})
}
