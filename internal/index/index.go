// Package index provides the spatial-index substrate of csdm: a uniform
// grid, a k-d tree, and an STR-bulk-loaded R-tree, each answering the
// circular range query range(p, ε, P) over a fixed set of points. Every
// stage of Pervasive Miner — popularity estimation, CSD construction,
// semantic recognition — is built on this query, so the package is the
// closest thing the system has to a database engine. ClosestWithin
// answers the radius-bounded nearest-point question from it.
//
// All indexes are immutable after construction and safe for concurrent
// readers. Query results are point IDs: positions in the point slice the
// index was built from, so callers can keep payloads in parallel slices.
// Range results come in unspecified order, and no caller needs another:
// the popularity fold queries a grid over the POIs around one stay at a
// time, so each returned POI takes exactly one term per query and the
// order of the ids cannot reach a sum.
package index

import (
	"fmt"

	"csdm/internal/geo"
)

// Index answers circular range queries over the point set it was built
// from.
//
// Domain: "within radius" is exact, by Haversine, for point sets and
// queries that do not straddle the ±180° meridian. The grid's cells and
// the R-tree's boxes do not wrap longitude, so they can miss a point
// just across the meridian from the center: for a point at
// (179.9999, 10), a 100 m query at (−179.9999, 10) returns nothing from
// either, though the point lies 22 m away. No city workload crosses the
// meridian.
type Index interface {
	// Within returns the IDs of all points within radius meters of
	// center (inclusive), in unspecified order. It is WithinAppend with
	// a nil buffer.
	Within(center geo.Point, radius float64) []int
	// WithinAppend appends the IDs of all points within radius meters
	// of center (inclusive, unspecified order) to buf and returns the
	// extended slice — the allocation-free query path for hot loops
	// that reuse a scratch buffer across calls.
	//
	// Aliasing contract: the index never retains buf or the returned
	// slice, and reads buf's existing elements never (append-only). The
	// caller owns the buffer exclusively; passing buf[:0] reuses its
	// capacity. Like append, the returned slice may share backing with
	// buf or be a grown copy, so the caller must use the return value.
	WithinAppend(center geo.Point, radius float64, buf []int) []int
	// Len returns the number of indexed points.
	Len() int
}

// ClosestWithin returns the ID of the point closest to q among those
// within radius meters of it, or -1 when none is. Distances are
// geo.Haversine and ties go to the lowest ID, the rule of
// geo.NearestIndex. pts are the points idx was built from. The range
// query appends into buf[:0], and the grown buffer is returned for
// reuse under WithinAppend's aliasing contract, so a caller that keeps
// it allocates nothing once it has grown.
func ClosestWithin(idx Index, pts []geo.Point, q geo.Point, radius float64, buf []int) (int, []int) {
	buf = idx.WithinAppend(q, radius, buf[:0])
	best, bestD := -1, 0.0
	for _, id := range buf {
		if d := geo.Haversine(q, pts[id]); best < 0 || d < bestD || d == bestD && id < best {
			best, bestD = id, d
		}
	}
	return best, buf
}

// Kind selects an Index implementation.
type Kind int

// The available index kinds.
const (
	KindGrid Kind = iota
	KindKDTree
	KindRTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGrid:
		return "grid"
	case KindKDTree:
		return "kdtree"
	case KindRTree:
		return "rtree"
	default:
		return "unknown"
	}
}

// ParseKind resolves a backend name from a CLI flag or config file.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "grid", "":
		return KindGrid, nil
	case "kdtree":
		return KindKDTree, nil
	case "rtree":
		return KindRTree, nil
	default:
		return KindGrid, fmt.Errorf("index: unknown backend %q (want grid, kdtree or rtree)", s)
	}
}

// CellHint converts an expected query radius into a grid cell size:
// non-positive radii default to the 100 m R3σ scale and tiny radii
// clamp to 10 m so a fine search radius does not explode the cell
// count. The tree backends ignore the hint, so every construction site
// can pass its query radius unconditionally.
func CellHint(radius float64) float64 {
	if radius <= 0 {
		return 100
	}
	if radius < 10 {
		return 10
	}
	return radius
}

// New builds an index of the requested kind over pts. hint is the
// expected query radius in meters; the grid derives its cell size from
// it via CellHint, the k-d tree and R-tree ignore it. When SetMetrics
// has attached a registry, the returned index samples query latencies
// and result sizes (1-in-N, so the hot paths stay allocation-free).
func New(kind Kind, pts []geo.Point, hint float64) Index {
	return NewPacked(kind, geo.Pack(pts), hint)
}

// NewPacked builds an index of the requested kind directly over a
// packed coordinate store, skipping the []Point copy. The store is
// batch-projected at its centroid on first use and its slices are
// aliased by the index, so the caller must treat pp as frozen
// afterwards; several indexes may share one store (they agree on the
// centroid origin and only the first build pays the projection).
func NewPacked(kind Kind, pp *geo.PackedPoints, hint float64) Index {
	switch kind {
	case KindKDTree:
		return instrument(kind, NewKDTreePacked(pp))
	case KindRTree:
		return instrument(kind, NewRTreePacked(pp))
	default:
		return instrument(KindGrid, NewGridPacked(pp, CellHint(hint)))
	}
}

// AsGrid returns the grid behind idx, sampled by SetMetrics or not, or
// nil when idx is another backend.
func AsGrid(idx Index) *Grid {
	if s, ok := idx.(*sampled); ok {
		idx = s.Index
	}
	g, _ := idx.(*Grid)
	return g
}
