package index

import (
	"slices"

	"csdm/internal/geo"
)

// GridView is a grid restricted to a subset of its points. It shares
// the grid's store, projection, latitude band and cell geometry, and
// holds its own cell table with only the member IDs of each cell,
// still in ascending order. A dense grid answers WithinAppend cell by
// cell in ascending cell key order, so the view's answer is exactly
// the grid's answer with the non-members removed, in the same order.
// The exact fallback scans IDs in ascending order on both, and skips
// non-members on the view; the sparse map sweep visits the view's own
// map, in its own order, as the grid does.
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
	if v.g != g {
		clear(v.cells.sparse)
	}
	v.g = g
	t := &v.cells
	t.keep = slices.Grow(t.keep[:0], n)[:n]
	for id := range t.keep {
		t.keep[id] = keep(id)
	}
	// Member IDs are copied into one buffer of capacity n, so appending
	// never moves the cells already filled.
	ids := slices.Grow(t.ids[:0], n)
	if g.cellStart == nil {
		// The view's map keeps every key of the grid's map, empty
		// cells included, so a warm rebuild inserts no key.
		if t.sparse == nil {
			t.sparse = make(map[int][]int, len(g.sparse))
		}
		for key, cell := range g.sparse {
			start := len(ids)
			for _, id := range cell {
				if t.keep[id] {
					ids = append(ids, id)
				}
			}
			t.sparse[key] = ids[start:len(ids):len(ids)]
		}
		t.ids, t.cellStart = ids, nil
		return
	}
	starts := slices.Grow(t.cellStart[:0], len(g.cellStart))[:len(g.cellStart)]
	starts[0] = 0
	for c := 0; c+1 < len(g.cellStart); c++ {
		for _, id := range g.ids[g.cellStart[c]:g.cellStart[c+1]] {
			if t.keep[id] {
				ids = append(ids, id)
			}
		}
		starts[c+1] = len(ids)
	}
	t.ids, t.cellStart, t.sparse = ids, starts, nil
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
