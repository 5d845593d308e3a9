package geo

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64, NaN payload
// and sign of zero included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// ulpNeighbours returns x and its k nearest representable neighbours on
// each side.
func ulpNeighbours(x float64, k int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < k; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
		hi = math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// logSweep returns n log-spaced values over [lo, hi] and their
// negatives.
func logSweep(lo, hi float64, n int) []float64 {
	out := make([]float64, 0, 2*n)
	step := math.Log(hi/lo) / float64(n-1)
	for i := 0; i < n; i++ {
		v := math.Min(lo*math.Exp(float64(i)*step), hi)
		out = append(out, v, -v)
	}
	return out
}

// specialArgs are the arguments every fast path must hand back to the
// library untouched: signed zeros, subnormals, NaN and infinities.
func specialArgs() []float64 {
	return []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.Float64frombits(0x000fffffffffffff),
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
}

// TestSinMatchesMath pins sin to math.Sin bit for bit on both sides of
// the first-octant test that selects the inline polynomial.
func TestSinMatchesMath(t *testing.T) {
	args := specialArgs()
	args = append(args, logSweep(1e-300, math.Pi/4, 4000)...)
	// The octant boundary: |x|·(4/π) crosses 1 within a few ulps of π/4.
	for _, b := range []float64{math.Pi / 4, -math.Pi / 4} {
		args = append(args, ulpNeighbours(b, 8)...)
	}
	args = append(args, 1, -1, 1.5, math.Pi/2, math.Pi, 3*math.Pi/4, 10, -10, 1e6, 1<<29, 1e17, 1e300, -1e300, math.MaxFloat64)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		args = append(args,
			(2*rng.Float64()-1)*math.Pi/4,      // fast path
			(2*rng.Float64()-1)*20,             // both
			(2*rng.Float64()-1)*1e-5,           // city-scale half-angles
			math.Float64frombits(rng.Uint64()), // any bit pattern
		)
	}
	fast := 0
	for _, x := range args {
		if got, want := sin(x), math.Sin(x); !sameBits(got, want) {
			t.Fatalf("sin(%v) = %v (%#x), math.Sin %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if math.Abs(x)*(4/math.Pi) < 1 && x != 0 {
			fast++
		}
	}
	if fast < len(args)/2 {
		t.Fatalf("only %d of %d arguments reach the inline path", fast, len(args))
	}
}

// TestAsinMatchesMath pins asin to math.Asin bit for bit on both sides
// of the 0.7 and 0.66 thresholds that select the inline xatan.
func TestAsinMatchesMath(t *testing.T) {
	args := specialArgs()
	args = append(args, logSweep(1e-300, 1, 4000)...)
	// x ≤ 0.7 guards the branch; t = x/√(1−x²) ≤ 0.66 holds up to
	// x = 0.66/√(1+0.66²) ≈ 0.5508.
	args = append(args, ulpNeighbours(0.7, 8)...)
	args = append(args, ulpNeighbours(0.66/math.Sqrt(1+0.66*0.66), 8)...)
	args = append(args, ulpNeighbours(1, 8)...)
	args = append(args, 1.5, 2, 10, 1e300, -2, math.MaxFloat64)
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 20000; i++ {
		args = append(args,
			rng.Float64()*0.55,                 // fast path
			2*rng.Float64()-1,                  // both
			rng.Float64()*2e-5,                 // city-scale √h
			math.Float64frombits(rng.Uint64()), // any bit pattern
		)
	}
	fast := 0
	for _, x := range args {
		if got, want := asin(x), math.Asin(x); !sameBits(got, want) {
			t.Fatalf("asin(%v) = %v (%#x), math.Asin %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if 0 < x && x <= 0.7 && x/math.Sqrt(1-x*x) <= 0.66 {
			fast++
		}
	}
	if fast < len(args)/3 {
		t.Fatalf("only %d of %d arguments reach the inline path", fast, len(args))
	}
}

// refHaversine is Haversine written with math.Sin and math.Asin, the
// oracle the inline small-angle paths must reproduce.
func refHaversine(a, b Point) float64 {
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(a.Lat*math.Pi/180)*math.Cos(b.Lat*math.Pi/180)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * 6371000.0 * math.Asin(math.Sqrt(h))
}

// TestHaversineCosNearAntipodal drives the library fallbacks through
// the whole kernel: near-antipodal pairs put both half-angle sines past
// the first octant and √h past 0.7, and the distance and the Eq. 2
// weight must still equal the math-only reference bit for bit.
func TestHaversineCosNearAntipodal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const r3sigma = 100.0
	k := NewGaussianKernel(r3sigma)
	for i := 0; i < 2000; i++ {
		a := Point{Lon: -180 + rng.Float64()*360, Lat: -60 + rng.Float64()*120}
		lon := a.Lon + 180 + (rng.Float64()-0.5)*2
		if lon > 180 {
			lon -= 360
		}
		b := Point{Lon: lon, Lat: -a.Lat + (rng.Float64()-0.5)*2}
		got := HaversineCos(a, CosLat(a.Lat), b, CosLat(b.Lat))
		if want := refHaversine(a, b); !sameBits(got, want) {
			t.Fatalf("HaversineCos(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if got < 19e6 {
			t.Fatalf("pair %v, %v is %v m apart, not near-antipodal", a, b, got)
		}
		if w, ref := k.WeightDist(got), refWeight(r3sigma, a, b); !sameBits(w, ref) {
			t.Fatalf("weight(%v, %v) = %v, reference %v", a, b, w, ref)
		}
	}
}

// FuzzHaversineCosMatchesMath checks HaversineCos against the
// math-only reference on arbitrary finite coordinates. NaN results
// (from overflowing differences) only need to agree on being NaN.
func FuzzHaversineCosMatchesMath(f *testing.F) {
	f.Add(121.47, 31.23, 121.4705, 31.2302)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(179.9995, 0.0, -179.9995, 0.0)
	f.Add(10.0, 45.0, -170.0, -45.0)
	f.Add(0.0, 89.9, 180.0, 89.9)
	f.Add(0.0, 0.0, 90.0, 0.0)
	f.Add(-1e300, 1e300, 1e300, -1e300)
	f.Fuzz(func(t *testing.T, aLon, aLat, bLon, bLat float64) {
		for _, v := range []float64{aLon, aLat, bLon, bLat} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		a, b := Point{Lon: aLon, Lat: aLat}, Point{Lon: bLon, Lat: bLat}
		got := HaversineCos(a, CosLat(a.Lat), b, CosLat(b.Lat))
		want := refHaversine(a, b)
		if math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if !sameBits(got, want) {
			t.Fatalf("HaversineCos(%v, %v) = %v (%#x), reference %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
