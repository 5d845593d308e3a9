// Package index provides the spatial-index substrate of csdm: a uniform
// grid, a k-d tree, and an STR-bulk-loaded R-tree, each answering the
// circular range query range(p, ε, P) and k-nearest-neighbor queries over
// a fixed set of points. Every stage of Pervasive Miner — popularity
// estimation, CSD construction, semantic recognition — is built on these
// queries, so the package is the closest thing the system has to a
// database engine.
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

// Index answers spatial queries over the point set it was built from.
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
	// Nearest returns the IDs of the k points closest to q, ordered by
	// increasing distance. Fewer than k IDs are returned when the index
	// holds fewer points.
	Nearest(q geo.Point, k int) []int
	// Len returns the number of indexed points.
	Len() int
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

// heapItem pairs a point ID with its distance to the query point.
type heapItem struct {
	id   int
	dist float64
}

// maxHeap is a bounded max-heap over distances used by kNN searches: the
// root is the worst of the current k best candidates.
type maxHeap []heapItem

func (h maxHeap) worst() float64 { return h[0].dist }

func (h *maxHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist >= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *maxHeap) popRoot() heapItem {
	root := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && (*h)[l].dist > (*h)[largest].dist {
			largest = l
		}
		if r < len(*h) && (*h)[r].dist > (*h)[largest].dist {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
	return root
}

// offer inserts it if the heap holds fewer than k items or it beats the
// current worst, evicting the worst in the latter case.
func (h *maxHeap) offer(it heapItem, k int) {
	if len(*h) < k {
		h.push(it)
		return
	}
	if it.dist < h.worst() {
		h.popRoot()
		h.push(it)
	}
}

// sortedIDs drains the heap into IDs ordered by increasing distance.
func (h *maxHeap) sortedIDs() []int {
	ids := make([]int, len(*h))
	for i := len(*h) - 1; i >= 0; i-- {
		ids[i] = h.popRoot().id
	}
	return ids
}
