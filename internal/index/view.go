package index

import (
	"slices"

	"csdm/internal/geo"
)

// GridView is a grid restricted to a subset of its points. It shares
// the grid's store, projection, latitude band, cell geometry and map
// from cell keys to slots, and holds its own ids and slot starts with
// only the member IDs of each cell, still in ascending order. The grid
// answers WithinAppend cell by cell in ascending cell key order, so the
// view's answer is exactly the grid's answer with the non-members
// removed, in the same order. The exact fallback scans IDs in
// ascending order on both, and skips non-members on the view.
//
// The zero value is an empty view. Restrict rebuilds a view in place,
// so one view's storage serves many subsets of one grid. A view is
// read-only between Restrict calls and safe for concurrent readers.
type GridView struct {
	g     *Grid
	cells cellTable
}

// Restrict makes v the view of g holding the points id with keep(id).
// It reuses v's storage: rebuilding a view of the same grid allocates
// nothing.
func (v *GridView) Restrict(g *Grid, keep func(id int) bool) {
	n := g.pp.Len()
	v.g = g
	t := &v.cells
	t.keep = slices.Grow(t.keep[:0], n)[:n]
	for id := range t.keep {
		t.keep[id] = keep(id)
	}
	// The view keeps every slot of the grid, empty ones included, so it
	// shares the grid's map from keys to slots and only filters each
	// slot's IDs.
	ids := slices.Grow(t.ids[:0], len(g.ids))
	start := slices.Grow(t.start[:0], len(g.start))
	for j := 0; j+1 < len(g.start); j++ {
		start = append(start, int32(len(ids)))
		for _, id := range g.run(j, j+1) {
			if t.keep[id] {
				ids = append(ids, id)
			}
		}
	}
	start = append(start, int32(len(ids)))
	t.ids, t.start = ids, start
	t.occ, t.occRank, t.keys = g.occ, g.occRank, g.keys
}

// WithinAppend is the grid's WithinAppend over the view's members: the
// IDs of members within radius of center are appended to buf, under
// Index's aliasing contract. A view that was never restricted appends
// nothing.
func (v *GridView) WithinAppend(center geo.Point, radius float64, buf []int) []int {
	if v.g == nil {
		return buf
	}
	return v.g.within(&v.cells, center, radius, buf)
}
