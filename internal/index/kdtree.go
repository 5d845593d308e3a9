package index

import (
	"sort"

	"csdm/internal/geo"
)

// KDTree is a static 2-d tree over planar-projected points. It offers
// logarithmic point queries regardless of how skewed the data is, which
// makes it the robust default when point density varies wildly (e.g.
// dense downtown vs. empty suburbs). Coordinates live in a packed SoA
// store, so node visits read the contiguous planar X/Y slices.
type KDTree struct {
	pp   *geo.PackedPoints
	proj geo.Projection
	lats latExtent
	// nodes are stored as a flattened median-split tree: ids holds point
	// IDs in tree order, and each recursion level alternates the split
	// axis. left/right boundaries are implicit in the recursion.
	ids []int
}

// NewKDTree builds a k-d tree over pts. It is a thin adapter over
// NewKDTreePacked.
func NewKDTree(pts []geo.Point) *KDTree {
	return NewKDTreePacked(geo.Pack(pts))
}

// NewKDTreePacked builds a k-d tree over a packed coordinate store,
// batch-projecting it at the centroid unless already projected. The
// tree aliases the store's slices; the caller must not mutate pp
// afterwards.
func NewKDTreePacked(pp *geo.PackedPoints) *KDTree {
	t := &KDTree{pp: pp, lats: newLatExtent()}
	if pp.Len() == 0 {
		t.proj = geo.NewProjection(geo.Point{})
		return t
	}
	t.proj = pp.EnsureProjected()
	t.lats.min, t.lats.max = pp.LatBounds()
	t.ids = make([]int, pp.Len())
	for i := range t.ids {
		t.ids[i] = i
	}
	t.build(0, len(t.ids), 0)
	return t
}

// build arranges ids[lo:hi] so that the median by the current axis sits
// at the middle position, then recurses into both halves.
func (t *KDTree) build(lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.selectNth(lo, hi, mid, axis)
	t.build(lo, mid, 1-axis)
	t.build(mid+1, hi, 1-axis)
}

// selectNth partially sorts ids[lo:hi] so ids[n] holds the element of
// rank n by the given axis (a quickselect would do; sort keeps the code
// simple and build time is amortized over many queries).
func (t *KDTree) selectNth(lo, hi, n, axis int) {
	s := t.ids[lo:hi]
	sort.Slice(s, func(i, j int) bool {
		return t.coord(s[i], axis) < t.coord(s[j], axis)
	})
	_ = n
}

func (t *KDTree) coord(id, axis int) float64 {
	if axis == 0 {
		return t.pp.X[id]
	}
	return t.pp.Y[id]
}

// Len implements Index.
func (t *KDTree) Len() int { return t.pp.Len() }

// Within implements Index.
func (t *KDTree) Within(center geo.Point, radius float64) []int {
	return t.WithinAppend(center, radius, nil)
}

// WithinAppend implements Index: the IDs within radius of center are
// appended to buf and the extended slice is returned. See the Index
// documentation for the aliasing contract.
func (t *KDTree) WithinAppend(center geo.Point, radius float64, buf []int) []int {
	if t.pp.Len() == 0 || radius < 0 {
		return buf
	}
	// The plane tests prune in planar space while membership is decided
	// on the sphere, so the prune radius must absorb the projection's
	// distortion over the built extent. When no sound bound exists the
	// query degrades to exact spherical testing of every point.
	f, ok := t.lats.inflation(t.proj.CosLat(), center.Lat, radius)
	if !ok {
		for id := 0; id < t.pp.Len(); id++ {
			if geo.Haversine(center, t.pp.At(id)) <= radius {
				buf = append(buf, id)
			}
		}
		return buf
	}
	c := t.proj.ToMeters(center)
	prune := radius*f + 1e-9
	t.rangeSearch(0, len(t.ids), 0, c, prune, radius, center, &buf)
	return buf
}

func (t *KDTree) rangeSearch(lo, hi, axis int, c geo.Meters, prune, radius float64, center geo.Point, out *[]int) {
	if lo >= hi {
		return
	}
	mid := (lo + hi) / 2
	id := t.ids[mid]
	// Exact test on the sphere; the planar tree only prunes.
	if geo.Haversine(center, t.pp.At(id)) <= radius {
		*out = append(*out, id)
	}
	split := t.coord(id, axis)
	var qc float64
	if axis == 0 {
		qc = c.X
	} else {
		qc = c.Y
	}
	if qc-prune <= split {
		t.rangeSearch(lo, mid, 1-axis, c, prune, radius, center, out)
	}
	if qc+prune >= split {
		t.rangeSearch(mid+1, hi, 1-axis, c, prune, radius, center, out)
	}
}
