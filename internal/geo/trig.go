package geo

import "math"

// The sine and arcsine below return math.Sin and math.Asin bit for bit.
// On the small-angle domain every city-scale Haversine lives in, they
// evaluate inline the one branch the standard library's pure-Go
// implementations take there, and skip its special-case tests, range
// reduction, sign handling and calls; any other argument falls back to
// the library. The coefficients are copied from Go's src/math/sin.go
// (_sin) and src/math/atan.go (xatan), which derive them from the Cephes
// Math Library (netlib.org/cephes) and are distributed under Go's
// BSD-style licence.

// sinCoef is math's _sin: sin(z) = z + z·z²·P(z²) on the first octant.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

// sin returns math.Sin(x). When |x|·(4/π) < 1 and x ≠ 0, math.sin's
// octant is j = 0 and its reduced argument z is x itself, so it returns
// the odd polynomial below on |x| and negates it for x < 0; evaluating
// the polynomial on x directly gives the same bits, because every
// operation in it rounds symmetrically under negation. NaN and ±Inf
// fail the octant test, and ±0 is excluded because the polynomial would
// turn −0 into +0.
func sin(x float64) float64 {
	if math.Abs(x)*(4/math.Pi) < 1 && x != 0 {
		zz := x * x
		return x + x*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	}
	return math.Sin(x)
}

// asin returns math.Asin(x). For 0 < x ≤ 0.7, math.asin evaluates
// satan(x/√(1−x²)), and satan of an argument t ≤ 0.66 is the xatan
// rational below; outside those two tests the library runs.
func asin(x float64) float64 {
	if 0 < x && x <= 0.7 {
		if t := x / math.Sqrt(1-x*x); t <= 0.66 {
			return xatan(t)
		}
	}
	return math.Asin(x)
}

// xatan is math's xatan: arctan(t) for 0 ≤ t ≤ 0.66.
func xatan(t float64) float64 {
	const (
		P0 = -8.750608600031904122785e-01
		P1 = -1.615753718733365076637e+01
		P2 = -7.500855792314704667340e+01
		P3 = -1.228866684490136173410e+02
		P4 = -6.485021904942025371773e+01
		Q0 = +2.485846490142306297962e+01
		Q1 = +1.650270098316988542046e+02
		Q2 = +4.328810604912902668951e+02
		Q3 = +4.853903996359136964868e+02
		Q4 = +1.945506571482613964425e+02
	)
	z := t * t
	z = z * ((((P0*z+P1)*z+P2)*z+P3)*z + P4) / (((((z+Q0)*z+Q1)*z+Q2)*z+Q3)*z + Q4)
	return t*z + t
}
