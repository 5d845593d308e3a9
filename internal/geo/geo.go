// Package geo provides the geographic primitives used throughout csdm:
// WGS84 points, Haversine distances, a local equirectangular projection
// for fast metric math, and the spatial statistics (centroid, variance,
// gyration radius, density) that the paper's definitions are built on.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by Haversine.
const EarthRadiusMeters = 6371000.0

// Point is a WGS84 coordinate. Lon is the longitude (x), Lat the
// latitude (y), both in decimal degrees, matching the paper's p = (x, y).
type Point struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lon, p.Lat)
}

// Valid reports whether the point is a finite coordinate inside the
// legal WGS84 ranges.
func (p Point) Valid() bool { return p.Check() == nil }

// CoordError reports why a coordinate pair is invalid. Reason is one of
// "nan", "inf", "lon-range", "lat-range" — stable keys the lenient
// loaders use as per-reason skip counters.
type CoordError struct {
	Reason string
	Lon    float64
	Lat    float64
}

// Error implements the error interface.
func (e *CoordError) Error() string {
	return fmt.Sprintf("geo: invalid coordinate (%v, %v): %s", e.Lon, e.Lat, e.Reason)
}

// CheckCoord classifies a lon/lat pair: nil when it is a finite WGS84
// coordinate, otherwise a *CoordError naming the first violated rule
// (NaN, then ±Inf, then longitude range, then latitude range).
func CheckCoord(lon, lat float64) error {
	switch {
	case math.IsNaN(lon) || math.IsNaN(lat):
		return &CoordError{Reason: "nan", Lon: lon, Lat: lat}
	case math.IsInf(lon, 0) || math.IsInf(lat, 0):
		return &CoordError{Reason: "inf", Lon: lon, Lat: lat}
	case lon < -180 || lon > 180:
		return &CoordError{Reason: "lon-range", Lon: lon, Lat: lat}
	case lat < -90 || lat > 90:
		return &CoordError{Reason: "lat-range", Lon: lon, Lat: lat}
	}
	return nil
}

// Check is CheckCoord on the point's own coordinates.
func (p Point) Check() error { return CheckCoord(p.Lon, p.Lat) }

// Clamp returns the nearest valid point: longitude and latitude are
// clamped into their WGS84 ranges (infinities land on the range edge)
// and NaN components collapse to zero. Synthetic generators clamp
// jittered coordinates so generated datasets always pass the loaders'
// validation.
func Clamp(p Point) Point {
	return Point{Lon: clampCoord(p.Lon, 180), Lat: clampCoord(p.Lat, 90)}
}

func clampCoord(v, limit float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v < -limit:
		return -limit
	case v > limit:
		return limit
	}
	return v
}

// Haversine returns the great-circle distance between a and b in meters.
// This is the d(p_i, p_j) of Table 2.
func Haversine(a, b Point) float64 {
	return HaversineCos(a, CosLat(a.Lat), b, CosLat(b.Lat))
}

// CosLat returns the cosine of a latitude given in degrees — the factor
// Haversine needs per endpoint. Packed stores keep it as a column
// (PackedPoints.Cos) so hot loops pay it once per point, not per pair.
func CosLat(lat float64) float64 {
	return math.Cos(lat * math.Pi / 180)
}

// HaversineCos is Haversine with both latitudes' cosines supplied by
// the caller (cosA = CosLat(a.Lat), cosB = CosLat(b.Lat)). It is the one
// copy of the formula: Haversine calls it, so a caller that passes the
// same cosines gets the same bits on every architecture. Its sine and
// arcsine are this package's sin and asin: math.Sin's and math.Asin's
// bits, with the small-angle branch every city-scale pair takes inline.
func HaversineCos(a Point, cosA float64, b Point, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180

	sinLat := sin(dLat / 2)
	sinLon := sin(dLon / 2)
	h := sinLat*sinLat + cosA*cosB*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * asin(math.Sqrt(h))
}

// Meters is a point in a local planar coordinate system, in meters.
type Meters struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance between two planar points in
// meters. City-scale coordinates cannot overflow a float64 square, so
// the plain square root beats math.Hypot's overflow-safe path.
func (m Meters) Dist(o Meters) float64 {
	dx := m.X - o.X
	dy := m.Y - o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Projection is an equirectangular projection anchored at an origin.
// Within a city-scale extent (tens of kilometers) it is accurate to a
// small fraction of a percent, which lets hot loops use cheap planar
// math instead of Haversine.
type Projection struct {
	origin Point
	cosLat float64
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin Point) Projection {
	return Projection{origin: origin, cosLat: math.Cos(origin.Lat * math.Pi / 180)}
}

// Origin returns the anchor point of the projection.
func (pr Projection) Origin() Point { return pr.origin }

// CosLat returns the cosine of the origin's latitude — the projection's
// longitude scale factor. Index backends use it to bound the
// distortion of planar distances against the true spherical metric.
func (pr Projection) CosLat() float64 { return pr.cosLat }

// ToMeters converts a WGS84 point to local planar meters.
func (pr Projection) ToMeters(p Point) Meters {
	const degToRad = math.Pi / 180
	return Meters{
		X: (p.Lon - pr.origin.Lon) * degToRad * EarthRadiusMeters * pr.cosLat,
		Y: (p.Lat - pr.origin.Lat) * degToRad * EarthRadiusMeters,
	}
}

// ProjectAll batch-projects lon[i]/lat[i] into dstX[i]/dstY[i] for every
// i. The per-element arithmetic is the exact expression ToMeters
// evaluates — same operands, same order — so dstX[i]/dstY[i] are
// bit-identical to ToMeters(Point{Lon: lon[i], Lat: lat[i]}); packed
// stores filled through this API preserve every planar-distance result
// of the per-point path. All four slices must have equal length.
func (pr Projection) ProjectAll(dstX, dstY, lon, lat []float64) {
	const degToRad = math.Pi / 180
	for i := range lon {
		dstX[i] = (lon[i] - pr.origin.Lon) * degToRad * EarthRadiusMeters * pr.cosLat
		dstY[i] = (lat[i] - pr.origin.Lat) * degToRad * EarthRadiusMeters
	}
}

// ToPoint converts local planar meters back to a WGS84 point.
func (pr Projection) ToPoint(m Meters) Point {
	const radToDeg = 180 / math.Pi
	return Point{
		Lon: pr.origin.Lon + m.X/(EarthRadiusMeters*pr.cosLat)*radToDeg,
		Lat: pr.origin.Lat + m.Y/EarthRadiusMeters*radToDeg,
	}
}

// Rect is an axis-aligned bounding box over WGS84 coordinates.
type Rect struct {
	Min Point // south-west corner
	Max Point // north-east corner
}

// NewRect returns the rectangle spanning the two corners in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{Lon: math.Min(a.Lon, b.Lon), Lat: math.Min(a.Lat, b.Lat)},
		Max: Point{Lon: math.Max(a.Lon, b.Lon), Lat: math.Max(a.Lat, b.Lat)},
	}
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lon >= r.Min.Lon && p.Lon <= r.Max.Lon &&
		p.Lat >= r.Min.Lat && p.Lat <= r.Max.Lat
}

// Intersects reports whether the two rectangles overlap (inclusive).
func (r Rect) Intersects(o Rect) bool {
	return r.Min.Lon <= o.Max.Lon && r.Max.Lon >= o.Min.Lon &&
		r.Min.Lat <= o.Max.Lat && r.Max.Lat >= o.Min.Lat
}

// Extend grows the rectangle to include p and returns the result.
func (r Rect) Extend(p Point) Rect {
	if p.Lon < r.Min.Lon {
		r.Min.Lon = p.Lon
	}
	if p.Lat < r.Min.Lat {
		r.Min.Lat = p.Lat
	}
	if p.Lon > r.Max.Lon {
		r.Max.Lon = p.Lon
	}
	if p.Lat > r.Max.Lat {
		r.Max.Lat = p.Lat
	}
	return r
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return r.Extend(o.Min).Extend(o.Max)
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{Lon: (r.Min.Lon + r.Max.Lon) / 2, Lat: (r.Min.Lat + r.Max.Lat) / 2}
}

// ExpandMeters returns a rectangle guaranteed to contain every point
// within d meters (great-circle) of some point in r — the conservative
// halo the sharded pipeline loads stay points from. Scaling longitude
// by the cosine at the rectangle's center would under-cover near the
// edges of a tall tile, so the longitude widening uses the spherical
// cap formula at the worst (highest-|lat|) latitude of the expanded
// band: the result is a superset for any tile geometry short of the
// poles.
func (r Rect) ExpandMeters(d float64) Rect {
	if d <= 0 {
		return r
	}
	const radToDeg = 180 / math.Pi
	delta := d / EarthRadiusMeters // angular radius
	latMin := math.Max(r.Min.Lat-delta*radToDeg, -90)
	latMax := math.Min(r.Max.Lat+delta*radToDeg, 90)
	phi := math.Max(math.Abs(latMin), math.Abs(latMax)) / radToDeg
	sinRatio := math.Sin(delta) / math.Cos(phi)
	var dLonDeg float64
	if math.Cos(phi) <= 0 || sinRatio >= 1 {
		dLonDeg = 360 // band touches a pole: cover all longitudes
	} else {
		dLonDeg = math.Asin(sinRatio) * radToDeg
	}
	return Rect{
		Min: Point{Lon: math.Max(r.Min.Lon-dLonDeg, -180), Lat: latMin},
		Max: Point{Lon: math.Min(r.Max.Lon+dLonDeg, 180), Lat: latMax},
	}
}

// Intersection returns the overlap of the two rectangles and whether
// they overlap at all (inclusive, like Intersects).
func (r Rect) Intersection(o Rect) (Rect, bool) {
	if !r.Intersects(o) {
		return Rect{}, false
	}
	return Rect{
		Min: Point{Lon: math.Max(r.Min.Lon, o.Min.Lon), Lat: math.Max(r.Min.Lat, o.Min.Lat)},
		Max: Point{Lon: math.Min(r.Max.Lon, o.Max.Lon), Lat: math.Min(r.Max.Lat, o.Max.Lat)},
	}, true
}

// DegArea returns the rectangle's area in square degrees — a unitless
// quantity only meaningful as a ratio between overlapping rectangles
// (the serving layer's extent-coverage validation).
func (r Rect) DegArea() float64 {
	w := r.Max.Lon - r.Min.Lon
	h := r.Max.Lat - r.Min.Lat
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// BoundingRect returns the smallest rectangle containing all pts.
// It returns a zero Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r
}

// CircleRect returns the bounding rectangle of the spherical cap
// centered at c with radius r meters. Range queries use it as a cheap
// prefilter before the exact Haversine check, so the box must contain
// the whole cap: the latitude span is the exact ±δ of the angular
// radius, and the longitude span uses the spherical formula
// Δλ = asin(sin δ / cos φ) — the cap's widest parallel is not at the
// center's latitude, so scaling by cos(φc) alone under-covers near the
// poles. When the cap touches a pole the longitude span is the full
// circle.
func CircleRect(c Point, r float64) Rect {
	if r < 0 {
		r = 0
	}
	const radToDeg = 180 / math.Pi
	delta := r / EarthRadiusMeters // angular radius
	dLatDeg := delta * radToDeg
	latMin := math.Max(c.Lat-dLatDeg, -90)
	latMax := math.Min(c.Lat+dLatDeg, 90)
	// A cap containing a pole spans all longitudes; so does a cap wider
	// than a hemisphere.
	if c.Lat+dLatDeg >= 90 || c.Lat-dLatDeg <= -90 || delta >= math.Pi/2 {
		return Rect{
			Min: Point{Lon: -180, Lat: latMin},
			Max: Point{Lon: 180, Lat: latMax},
		}
	}
	cosLat := math.Cos(c.Lat * math.Pi / 180)
	sinRatio := math.Sin(delta) / cosLat
	var dLonDeg float64
	if sinRatio >= 1 {
		dLonDeg = 180
	} else {
		dLonDeg = math.Asin(sinRatio) * radToDeg
	}
	return Rect{
		Min: Point{Lon: c.Lon - dLonDeg, Lat: latMin},
		Max: Point{Lon: c.Lon + dLonDeg, Lat: latMax},
	}
}
