package geo

import "math"

// GaussianKernel evaluates the Gaussian distribution coefficient of
// Equation (2),
//
//	‖p, p'‖ = 1/(σ·√(2π)) · exp(−d(p,p')² / (2σ²)),  σ = R3σ/3,
//
// which models GPS noise as a Gaussian whose 3σ envelope is R3σ. The
// kernel weighs a stay point's contribution to POI popularity and a
// POI's vote during semantic recognition.
type GaussianKernel struct {
	r3sigma float64
	sigma   float64
	norm    float64
	inv2s2  float64
}

// NewGaussianKernel returns a kernel with the given 3σ radius in meters.
// It panics if r3sigma is not positive, since every caller would divide
// by zero otherwise; the paper's default is 100 m.
func NewGaussianKernel(r3sigma float64) GaussianKernel {
	if r3sigma <= 0 {
		panic("geo: GaussianKernel radius must be positive")
	}
	s := r3sigma / 3
	return GaussianKernel{
		r3sigma: r3sigma,
		sigma:   s,
		norm:    1 / (s * math.Sqrt(2*math.Pi)),
		inv2s2:  1 / (2 * s * s),
	}
}

// Radius returns the kernel's 3σ cutoff radius in meters.
func (k GaussianKernel) Radius() float64 { return k.r3sigma }

// WeightDist evaluates the kernel at a precomputed distance in meters.
func (k GaussianKernel) WeightDist(d float64) float64 {
	return k.norm * math.Exp(-d*d*k.inv2s2)
}

// WeightSumInto folds the kernel weights between center and the
// identified packed points into acc, one addition per id in the ids'
// order, and returns the new accumulator. It is the kernel sum of
// Equations (2)–(3). Its one caller, csd.FoldPopularity, passes
// ascending stay ids and states why that order keeps every popularity
// path bit-identical.
//
// The center's latitude cosine is taken once per call and each point's
// comes from the store's Cos column, so a pair costs one HaversineCos
// and one exp — the same bits as WeightDist(Haversine(center, point)).
func (k GaussianKernel) WeightSumInto(acc float64, center Point, pp *PackedPoints, ids []int) float64 {
	cosC := CosLat(center.Lat)
	for _, id := range ids {
		acc += k.WeightDist(HaversineCos(center, cosC, pp.At(id), pp.Cos[id]))
	}
	return acc
}
