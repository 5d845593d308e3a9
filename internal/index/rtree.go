package index

import (
	"math"
	"sort"

	"csdm/internal/geo"
)

// rtreeMaxEntries is the node fan-out of the R-tree.
const rtreeMaxEntries = 16

// RTree is a static R-tree bulk-loaded with the Sort-Tile-Recursive (STR)
// algorithm. STR packing yields near-minimal overlap between sibling
// bounding boxes, so range queries touch few subtrees even on clustered
// city data. Leaf scans read coordinates out of a packed SoA store and
// use the projection's distortion band to accept or reject most
// candidates with planar math before falling back to Haversine.
type RTree struct {
	pp   *geo.PackedPoints
	proj geo.Projection
	lats latExtent
	root *rtreeNode
}

type rtreeNode struct {
	rect     geo.Rect
	children []*rtreeNode // nil for leaves
	ids      []int        // point IDs, leaves only
}

// NewRTreePacked bulk-loads an R-tree over a packed coordinate store,
// batch-projecting it at the centroid unless already projected. The
// tree aliases the store's slices; the caller must not mutate pp
// afterwards.
func NewRTreePacked(pp *geo.PackedPoints) *RTree {
	t := &RTree{pp: pp, lats: newLatExtent()}
	if pp.Len() == 0 {
		t.proj = geo.NewProjection(geo.Point{})
		return t
	}
	t.proj = pp.EnsureProjected()
	t.lats.min, t.lats.max = pp.LatBounds()
	ids := make([]int, pp.Len())
	for i := range ids {
		ids[i] = i
	}
	leaves := t.packLeaves(ids)
	t.root = t.packUpward(leaves)
	return t
}

// packLeaves tiles the points into leaf nodes of up to rtreeMaxEntries
// each: sort by longitude, slice into vertical strips, sort each strip by
// latitude, and cut into runs.
func (t *RTree) packLeaves(ids []int) []*rtreeNode {
	sort.Slice(ids, func(i, j int) bool { return t.pp.Lon[ids[i]] < t.pp.Lon[ids[j]] })
	nLeaves := (len(ids) + rtreeMaxEntries - 1) / rtreeMaxEntries
	stripCount := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	stripSize := stripCount * rtreeMaxEntries

	var leaves []*rtreeNode
	for s := 0; s < len(ids); s += stripSize {
		strip := ids[s:min(s+stripSize, len(ids))]
		sort.Slice(strip, func(i, j int) bool { return t.pp.Lat[strip[i]] < t.pp.Lat[strip[j]] })
		for o := 0; o < len(strip); o += rtreeMaxEntries {
			run := strip[o:min(o+rtreeMaxEntries, len(strip))]
			leaf := &rtreeNode{ids: append([]int(nil), run...)}
			leaf.rect = geo.Rect{Min: t.pp.At(run[0]), Max: t.pp.At(run[0])}
			for _, id := range run[1:] {
				leaf.rect = leaf.rect.Extend(t.pp.At(id))
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packUpward repeatedly groups nodes into parents until one root remains.
func (t *RTree) packUpward(nodes []*rtreeNode) *rtreeNode {
	for len(nodes) > 1 {
		sort.Slice(nodes, func(i, j int) bool {
			return nodes[i].rect.Center().Lon < nodes[j].rect.Center().Lon
		})
		nParents := (len(nodes) + rtreeMaxEntries - 1) / rtreeMaxEntries
		stripCount := int(math.Ceil(math.Sqrt(float64(nParents))))
		stripSize := stripCount * rtreeMaxEntries

		var parents []*rtreeNode
		for s := 0; s < len(nodes); s += stripSize {
			strip := nodes[s:min(s+stripSize, len(nodes))]
			sort.Slice(strip, func(i, j int) bool {
				return strip[i].rect.Center().Lat < strip[j].rect.Center().Lat
			})
			for o := 0; o < len(strip); o += rtreeMaxEntries {
				run := strip[o:min(o+rtreeMaxEntries, len(strip))]
				parent := &rtreeNode{children: append([]*rtreeNode(nil), run...)}
				parent.rect = run[0].rect
				for _, ch := range run[1:] {
					parent.rect = parent.rect.Union(ch.rect)
				}
				parents = append(parents, parent)
			}
		}
		nodes = parents
	}
	return nodes[0]
}

// Len implements Index.
func (t *RTree) Len() int { return t.pp.Len() }

// Within implements Index.
func (t *RTree) Within(center geo.Point, radius float64) []int {
	return t.WithinAppend(center, radius, nil)
}

// WithinAppend implements Index: the IDs within radius of center are
// appended to buf and the extended slice is returned. See the Index
// documentation for the aliasing contract.
func (t *RTree) WithinAppend(center geo.Point, radius float64, buf []int) []int {
	if t.root == nil || radius < 0 {
		return buf
	}
	box := geo.CircleRect(center, radius)
	// When the built extent admits a sound distortion band for this
	// query, leaf candidates clearly inside or outside by the planar
	// metric skip the exact spherical check; only the boundary shell
	// pays for Haversine. Band membership agrees with Haversine, so the
	// appended IDs — and their order — are unchanged. Without a band
	// (hull touches a pole, continent-scale radius) every leaf candidate
	// is tested on the sphere, exactly as before.
	lo, hi, ok := t.lats.bounds(t.proj.CosLat(), center.Lat, radius)
	if !ok {
		t.search(t.root, box, center, radius, &buf)
		return buf
	}
	c := t.proj.ToMeters(center)
	t.searchBand(t.root, box, center, c, radius, radius*lo, radius*hi, &buf)
	return buf
}

func (t *RTree) search(n *rtreeNode, box geo.Rect, center geo.Point, radius float64, out *[]int) {
	if !n.rect.Intersects(box) {
		return
	}
	if n.children == nil {
		for _, id := range n.ids {
			if geo.Haversine(center, t.pp.At(id)) <= radius {
				*out = append(*out, id)
			}
		}
		return
	}
	for _, ch := range n.children {
		t.search(ch, box, center, radius, out)
	}
}

// searchBand is search with the planar fast path: candidates at planar
// distance ≤ rLo are accepted and > rHi rejected without touching
// Haversine; the planar distances stream out of the packed X/Y slices.
func (t *RTree) searchBand(n *rtreeNode, box geo.Rect, center geo.Point, c geo.Meters, radius, rLo, rHi float64, out *[]int) {
	if !n.rect.Intersects(box) {
		return
	}
	if n.children == nil {
		px, py := t.pp.X, t.pp.Y
		for _, id := range n.ids {
			dx := px[id] - c.X
			dy := py[id] - c.Y
			d := math.Sqrt(dx*dx + dy*dy)
			switch {
			case d <= rLo:
				*out = append(*out, id)
			case d > rHi:
			case geo.Haversine(center, t.pp.At(id)) <= radius:
				*out = append(*out, id)
			}
		}
		return
	}
	for _, ch := range n.children {
		t.searchBand(ch, box, center, c, radius, rLo, rHi, out)
	}
}
