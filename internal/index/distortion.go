package index

import (
	"math"

	"csdm/internal/geo"
)

// latExtent is the latitude hull of an index's point set, tracked at
// build time. The equirectangular projection the grid and k-d tree
// query through scales longitudes by the cosine of the projection
// origin's latitude, while the true spherical metric scales them by the
// cosine of the latitudes actually involved in a pair. The hull bounds
// that mismatch, letting each query derive a sound planar-vs-true
// distance band instead of assuming the fixed city-scale ±0.5% the
// pre-fix code hardcoded (which silently broke the Within contract on
// high-latitude or country-scale inputs).
type latExtent struct {
	min, max float64 // degrees
}

func newLatExtent() latExtent {
	return latExtent{min: math.Inf(1), max: math.Inf(-1)}
}

// distortionSlackLimit is the largest curvature slack a query accepts
// before planar pruning is abandoned for exact spherical testing. Past
// a few percent the planar band is so wide that pruning saves little.
const distortionSlackLimit = 0.05

// distortionCosFloor rejects hulls touching the poles, where the
// longitude scale degenerates and no finite planar band is sound.
const distortionCosFloor = 1e-3

// hullCos returns the extreme values of cos(lat) over the hull extended
// with the query latitude.
func (e latExtent) hullCos(queryLat float64) (cosMin, cosMax float64) {
	latLo := math.Min(e.min, queryLat)
	latHi := math.Max(e.max, queryLat)
	cosA := math.Cos(latLo * math.Pi / 180)
	cosB := math.Cos(latHi * math.Pi / 180)
	cosMin = math.Min(cosA, cosB)
	cosMax = math.Max(cosA, cosB)
	if latLo <= 0 && latHi >= 0 {
		cosMax = 1 // the equator is in the hull
	}
	return cosMin, cosMax
}

// distortionSlack bounds the higher-order (curvature) error of the
// equirectangular approximation for pairs within true distance d whose
// latitudes stay in a hull with minimum cosine cosMin. The leading
// neglected terms are O(Δλ²) and O(Δφ²) with coefficients below 1/8;
// dividing by 4 keeps a ≥2× margin.
func distortionSlack(d, cosMin float64) float64 {
	ang := d / geo.EarthRadiusMeters
	angLon := ang / cosMin
	return (angLon*angLon + ang*ang) / 4
}

// bounds returns lo, hi such that every pair (query center, indexed
// point) within true spherical distance ≈ radius satisfies
//
//	lo · true ≤ planar ≤ hi · true,
//
// where planar is the equirectangular distance under a projection whose
// longitude scale is cosOrigin. ok is false when no sound finite band
// exists (hull touches a pole, or the radius is so large relative to
// the hull latitudes that curvature slack exceeds the limit); callers
// must then fall back to exact spherical testing.
func (e latExtent) bounds(cosOrigin, queryLat, radius float64) (lo, hi float64, ok bool) {
	cosMin, cosMax := e.hullCos(queryLat)
	if cosMin <= distortionCosFloor {
		return 0, 0, false
	}
	slack := distortionSlack(radius, cosMin)
	if slack > distortionSlackLimit {
		return 0, 0, false
	}
	// Pairs separated along a meridian have ratio 1 regardless of the
	// longitude scale, so the band always brackets 1.
	lo = math.Min(cosOrigin/cosMax, 1) * (1 - slack)
	hi = math.Max(cosOrigin/cosMin, 1) * (1 + slack)
	return lo, hi, true
}

// inflation returns a factor f with planar ≤ f · true for pairs within
// true distance d, or ok=false when no finite factor is sound. The k-d
// tree multiplies its pruning radius by it so a planar plane distance
// never discards a true hit.
func (e latExtent) inflation(cosOrigin, queryLat, d float64) (float64, bool) {
	cosMin, _ := e.hullCos(queryLat)
	if cosMin <= distortionCosFloor {
		return 0, false
	}
	slack := distortionSlack(d, cosMin)
	if slack > distortionSlackLimit {
		return 0, false
	}
	return math.Max(cosOrigin/cosMin, 1) * (1 + slack), true
}
