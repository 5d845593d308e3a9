package geo

import "math"

// PackedPoints is a struct-of-arrays coordinate store: the lon/lat of a
// point set in two contiguous float64 slices, plus — once projected —
// the planar x/y under a local equirectangular projection in two more.
// The spatial indexes and the density-based clustering scan coordinates
// linearly in their hot loops; packing turns those scans from scattered
// []Point/[]Meters pointer-chasing into dense sequential reads while
// keeping full float64 precision, so every distance (and therefore every
// mined pattern) is bit-identical to the array-of-structs layout.
//
// A PackedPoints is mutable only through Pack, Append, AppendPoint and
// Project; after an index is built over it the store must be treated as
// frozen (indexes alias the slices rather than copying them). It must
// not be shared between concurrent builders.
type PackedPoints struct {
	// Lon[i]/Lat[i] are point i's WGS84 coordinates in degrees.
	Lon []float64
	Lat []float64
	// Cos[i] is CosLat(Lat[i]), filled with every point that enters
	// the store, so kernel sums read both endpoints' cosines instead of
	// recomputing them per pair.
	Cos []float64
	// X[i]/Y[i] are point i's planar meters under Proj, valid only
	// after Project; both are filled by Projection.ProjectAll and are
	// bit-identical to per-point ToMeters results.
	X []float64
	Y []float64

	proj      Projection
	projected bool
}

// Pack copies pts into a packed store. The planar slices stay empty
// until Project runs; indexes project on demand at the centroid.
func Pack(pts []Point) *PackedPoints {
	pp := &PackedPoints{
		Lon: make([]float64, len(pts)),
		Lat: make([]float64, len(pts)),
		Cos: make([]float64, len(pts)),
	}
	for i, p := range pts {
		pp.Lon[i] = p.Lon
		pp.Lat[i] = p.Lat
		pp.Cos[i] = CosLat(p.Lat)
	}
	return pp
}

// Len returns the number of packed points.
func (pp *PackedPoints) Len() int { return len(pp.Lon) }

// Append grows the store with pts, assigning them the next ids in
// order. If the store is already projected, the new tail is projected
// under the existing projection (same origin — ToMeters evaluates
// ProjectAll's per-element expression, so the old points' planar bits
// are untouched and the tail's bits equal a from-scratch projection of
// the grown set at the same origin). Growth never disturbs an index
// built earlier over the store: the index aliases slice headers whose
// length predates the append, so it keeps answering over exactly the
// first Len-at-build points.
func (pp *PackedPoints) Append(pts []Point) {
	for _, p := range pts {
		pp.AppendPoint(p)
	}
}

// AppendPoint is Append for a single point: it fills every column,
// Cos and (on a projected store) X/Y included.
func (pp *PackedPoints) AppendPoint(p Point) {
	pp.Lon = append(pp.Lon, p.Lon)
	pp.Lat = append(pp.Lat, p.Lat)
	pp.Cos = append(pp.Cos, CosLat(p.Lat))
	if pp.projected {
		m := pp.proj.ToMeters(p)
		pp.X = append(pp.X, m.X)
		pp.Y = append(pp.Y, m.Y)
	}
}

// At returns point i as a Point value (exact coordinate bits, no
// rounding — At(i) equals the Point that was packed).
func (pp *PackedPoints) At(i int) Point {
	return Point{Lon: pp.Lon[i], Lat: pp.Lat[i]}
}

// Centroid returns the arithmetic mean of the packed points with the
// same accumulation order as Centroid over []Point, so a packed build
// anchors its projection at the bit-identical origin.
func (pp *PackedPoints) Centroid() Point {
	if len(pp.Lon) == 0 {
		return Point{}
	}
	var sLon, sLat float64
	for i := range pp.Lon {
		sLon += pp.Lon[i]
		sLat += pp.Lat[i]
	}
	n := float64(len(pp.Lon))
	return Point{Lon: sLon / n, Lat: sLat / n}
}

// LatBounds returns the minimum and maximum packed latitude (the
// latitude hull index backends bound projection distortion with).
// It returns (+Inf, -Inf) for an empty store.
func (pp *PackedPoints) LatBounds() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, lat := range pp.Lat {
		if lat < min {
			min = lat
		}
		if lat > max {
			max = lat
		}
	}
	return min, max
}

// Project fills X/Y with the batch projection of every point at origin
// and records the projection. Re-projecting at a different origin
// overwrites the planar slices; callers sharing one store across
// builders must agree on the origin (every builder in this codebase
// uses the centroid, so sharing is safe in practice).
func (pp *PackedPoints) Project(origin Point) Projection {
	pr := NewProjection(origin)
	if cap(pp.X) < len(pp.Lon) {
		pp.X = make([]float64, len(pp.Lon))
		pp.Y = make([]float64, len(pp.Lon))
	} else {
		pp.X = pp.X[:len(pp.Lon)]
		pp.Y = pp.Y[:len(pp.Lon)]
	}
	pr.ProjectAll(pp.X, pp.Y, pp.Lon, pp.Lat)
	pp.proj = pr
	pp.projected = true
	return pr
}

// EnsureProjected projects at the centroid unless a projection is
// already in place, and returns the store's projection. This is the
// builders' entry point: the first index over a store pays the batch
// projection, later builders (and OPTICS) reuse the planar slices.
func (pp *PackedPoints) EnsureProjected() Projection {
	if !pp.projected {
		return pp.Project(pp.Centroid())
	}
	return pp.proj
}

// Projected reports whether the planar slices are valid.
func (pp *PackedPoints) Projected() bool { return pp.projected }

// Proj returns the projection the planar slices were filled under
// (zero Projection before Project).
func (pp *PackedPoints) Proj() Projection { return pp.proj }
