package geo

import (
	"math"
	"math/rand"
	"testing"
)

// refGyrationRadius is GyrationRadius as it was written before it took
// the centroid's latitude cosine once: one Haversine per point.
func refGyrationRadius(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	c := Centroid(pts)
	var sum float64
	for _, p := range pts {
		d := Haversine(c, p)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pts)))
}

// refDensity is Density over refGyrationRadius.
func refDensity(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	r := refGyrationRadius(pts)
	if r < MinDensityRadius {
		r = MinDensityRadius
	}
	return float64(len(pts)) / (math.Pi * r * r)
}

// TestGyrationRadiusMatchesPerPointHaversine pins GyrationRadius and
// Density to the per-point Haversine loop by Float64bits, on the
// kernel reference's point sets (both hemispheres, ±89.9°, across the
// antimeridian), on city-scale groups, on coincident points and on the
// empty and one-point sets.
func TestGyrationRadiusMatchesPerPointHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	_, sets := kernelRefPairs(rng)
	for trial := 0; trial < 100; trial++ {
		c := Point{Lon: 116.3 + rng.Float64()*0.2, Lat: 39.8 + rng.Float64()*0.2}
		pts := make([]Point, 1+rng.Intn(80))
		for i := range pts {
			pts[i] = Point{Lon: c.Lon + rng.NormFloat64()*0.001, Lat: c.Lat + rng.NormFloat64()*0.001}
		}
		sets = append(sets, pts)
	}
	same := Point{Lon: 10, Lat: 50}
	sets = append(sets, nil, []Point{same}, []Point{same, same, same})
	for i, pts := range sets {
		if got, want := GyrationRadius(pts), refGyrationRadius(pts); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d: GyrationRadius = %v, per-point Haversine = %v", i, got, want)
		}
		if got, want := Density(pts), refDensity(pts); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d: Density = %v, per-point Haversine = %v", i, got, want)
		}
	}
}
