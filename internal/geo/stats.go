package geo

import "math"

// Centroid returns the arithmetic mean of pts in coordinate space, the
// p_c of Equation (1). It returns a zero Point for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sLon, sLat float64
	for _, p := range pts {
		sLon += p.Lon
		sLat += p.Lat
	}
	n := float64(len(pts))
	return Point{Lon: sLon / n, Lat: sLat / n}
}

// VarianceMeters implements Var(S) of Equation (1): the sample variance
// of the point distribution around the centroid, computed in a local
// metric projection and returned in square meters (the paper defines it
// on raw coordinates; thresholds in meters are easier to reason about
// than squared degrees). It returns 0 for fewer than two points.
func VarianceMeters(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	pr := NewProjection(Centroid(pts))
	var sum float64
	for _, p := range pts {
		m := pr.ToMeters(p)
		sum += m.X*m.X + m.Y*m.Y
	}
	return sum / float64(len(pts)-1)
}

// GyrationRadius returns the root-mean-square distance (meters) of pts
// from their centroid — the spatial "spread" of the set. The centroid's
// latitude cosine is taken once; HaversineCos with the same cosines is
// Haversine bit for bit.
func GyrationRadius(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	c := Centroid(pts)
	cosC := CosLat(c.Lat)
	var sum float64
	for _, p := range pts {
		d := HaversineCos(c, cosC, p, CosLat(p.Lat))
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pts)))
}

// MinDensityRadius clamps the gyration radius used by Density so that a
// pile of coincident points does not report infinite density. 5 m is
// below GPS accuracy, so the clamp never masks a real spread.
const MinDensityRadius = 5.0

// Density implements Den(S) of Table 2: the number of points per square
// meter inside the disc of the set's gyration radius,
//
//	Den(S) = |S| / (π · max(r_g, MinDensityRadius)²).
//
// The paper leaves Den unspecified; this definition makes its default
// threshold ρ = 0.002 m⁻² meaningful for σ≈50-point groups (≈56 m radius).
func Density(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	r := GyrationRadius(pts)
	if r < MinDensityRadius {
		r = MinDensityRadius
	}
	return float64(len(pts)) / (math.Pi * r * r)
}

// MeanPairwiseDistance returns the average Haversine distance (meters)
// over all unordered pairs of pts — the ss(Group) of Equation (9).
// It returns 0 for fewer than two points.
func MeanPairwiseDistance(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			sum += Haversine(pts[i], pts[j])
		}
	}
	return sum * 2 / float64(n*(n-1))
}

// NearestIndex returns the index in pts of the point closest to q, or -1
// when pts is empty. Ties resolve to the lowest index.
func NearestIndex(q Point, pts []Point) int {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := Haversine(q, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// MedoidIndex returns the index of the point closest to the centroid of
// pts (the paper's CenterPoint: "the point closest to the cluster
// center"), or -1 when pts is empty.
func MedoidIndex(pts []Point) int {
	if len(pts) == 0 {
		return -1
	}
	return NearestIndex(Centroid(pts), pts)
}
