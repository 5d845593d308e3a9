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
// cosB = CosLat(b.Lat). It is the per-pair term of Equations (2)–(3)
// and of Algorithm 3's vote, and the scalar definition WeightsCos
// batches.
func (k GaussianKernel) WeightCos(a Point, cosA float64, b Point, cosB float64) float64 {
	return k.WeightDist(HaversineCos(a, cosA, b, cosB))
}

// WeightsCos sets dst[t] to WeightCos(poi.At(ids[t]), poi.Cos[ids[t]],
// stay, cosStay) for every t, bit for bit, POI first and stay second as
// csd.FoldPopularity orders the pair. dst must hold len(ids) entries.
//
// One pair's weight is a single long dependent chain: two sines, √h,
// a division and a rational arcsine, then math.Exp. Evaluated pair by
// pair, the CPU waits out each chain before the next begins. WeightsCos
// runs the same stage helpers HaversineCos runs, each as one pass over
// the batch whose iterations are independent, so the CPU overlaps the
// pairs within a pass: the haversine h, then √h, then the arc length,
// then the Gaussian. Each stage rounds exactly as in the scalar form;
// only the order of evaluation across pairs changes, never within one.
func (k GaussianKernel) WeightsCos(dst []float64, poi *PackedPoints, ids []int, stay Point, cosStay float64) {
	dst = dst[:len(ids)]
	for t, id := range ids {
		dst[t] = haversineH(Point{Lon: poi.Lon[id], Lat: poi.Lat[id]}, poi.Cos[id], stay, cosStay)
	}
	for t, h := range dst {
		dst[t] = math.Sqrt(h)
	}
	for t, s := range dst {
		dst[t] = haversineArc(s)
	}
	for t, d := range dst {
		dst[t] = k.WeightDist(d)
	}
}
