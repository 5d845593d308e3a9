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

// WeightCos is the kernel weight between a and b with both latitude
// cosines supplied, as HaversineCos takes them: the same bits as
// WeightDist(Haversine(a, b)) when cosA = CosLat(a.Lat) and
// cosB = CosLat(b.Lat). It is the per-pair term of Equations (2)–(3);
// csd.FoldPopularity passes the POI first and the stay second, reads
// both cosines from packed Cos columns, and states the order in which
// the terms are added.
func (k GaussianKernel) WeightCos(a Point, cosA float64, b Point, cosB float64) float64 {
	return k.WeightDist(HaversineCos(a, cosA, b, cosB))
}
