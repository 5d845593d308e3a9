package index

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"csdm/internal/geo"
)

// Grid is a uniform grid index. Points are bucketed into square cells of
// a fixed size in a local metric projection; range queries visit only the
// cells overlapping the query circle's bounding box. For the paper's
// city-scale workloads with short radii (ε_p = 30 m, R3σ = 100 m) this is
// the fastest of the three indexes.
//
// The grid scans coordinates through a packed SoA store: candidate
// tests read the contiguous planar X/Y slices sequentially instead of
// chasing []Point/[]Meters elements, so cell sweeps run cache-dense.
//
// Its memory follows the points, not the extent: the cell table (see
// cellTable) costs 4 B per id plus at most 64 B per point and about
// 1 KiB, however many cells the extent spans. A planar query returns
// its ids in ascending (cell key, id) order; the exact fallback returns
// them in ascending id order.
type Grid struct {
	pp       *geo.PackedPoints
	proj     geo.Projection
	lats     geo.LatHull
	cellSize float64
	minX     float64
	minY     float64
	cols     int
	rows     int
	cellTable
}

// cellTable buckets point IDs by grid cell in one CSR layout: ids holds
// the point IDs grouped by cell in ascending cell key order, ascending
// within each cell, and slot j's IDs are ids[start[j]:start[j+1]].
// Slots follow the cell keys' order, so the cells of one row of a
// query box are one run of slots and one contiguous run of ids.
//
// How a cell key finds its slot depends on how many cells the extent
// holds per point:
//   - direct (occ and keys nil): one slot per cell of the extent, empty
//     cells included, and slot k is cell k;
//   - ranked (occ set): one slot per occupied cell; occ is a bitmap of
//     the occupied cells and occRank counts the occupied cells before
//     each 64-cell word, so a key's slot is a rank;
//   - listed (keys set): one slot per occupied cell; keys lists their
//     cell keys in ascending order, and a binary search finds a slot.
type cellTable struct {
	ids     []int32
	start   []int32
	occ     []uint64
	occRank []int32
	keys    []int
	// keep, when set, is the membership of a GridView by point ID. The
	// view's cells already hold only its members; keep filters the
	// exact fallback, which scans every ID instead of the cells.
	keep []bool
}

// rank returns the slot of cell key k on a ranked table: the number of
// occupied cells with keys below k.
func (t *cellTable) rank(k int) int {
	w := k >> 6
	return int(t.occRank[w]) + bits.OnesCount64(t.occ[w]&(1<<(k&63)-1))
}

// search returns the slot range [a, b) of the cells whose keys lie in
// [lo, hi) on a listed table.
func (t *cellTable) search(lo, hi int) (a, b int) {
	a, _ = slices.BinarySearch(t.keys, lo)
	b, _ = slices.BinarySearch(t.keys[a:], hi)
	return a, a + b
}

// run returns the IDs of slots [a, b), in the table's order.
func (t *cellTable) run(a, b int) []int32 {
	return t.ids[t.start[a]:t.start[b]]
}

// The cell budgets of the table layouts, for n points: a direct table
// while the extent holds at most directPerPoint·n + directSlack cells
// (4 B each), a ranked one while it holds at most rankedPerPoint·n +
// rankedSlack (12 B per 64 cells), and a listed one beyond. Either
// budget keeps the table within 64 B per point. Member indexes,
// popularity strips and the closure's stay grid are direct; the ε_p and
// merge grids, mostly empty 30 m and 150 m cells, are ranked.
const (
	directPerPoint = 16
	directSlack    = 64
	rankedPerPoint = 256
	rankedSlack    = 4096
)

// maxGridDim caps the cell count of a single axis. Keeping each axis
// under 2³¹ guarantees the combined cell key cy·cols+cx fits a 64-bit
// int, so cell keys stay unique even for extreme extent/cell-size
// combinations; the cell size is grown to fit when a caller's hint
// would exceed the cap.
const maxGridDim = 1 << 31

// NewGrid builds a grid over pts with the given cell size in meters.
// A non-positive cellSize defaults to 100 m. It is a thin adapter over
// NewGridPacked.
func NewGrid(pts []geo.Point, cellSize float64) *Grid {
	return NewGridPacked(geo.Pack(pts), cellSize)
}

// NewGridPacked builds a grid over a packed coordinate store, batch-
// projecting it at the centroid unless already projected. The grid
// aliases the store's slices; the caller must not mutate pp afterwards.
// The store must hold fewer than 2³¹ points.
func NewGridPacked(pp *geo.PackedPoints, cellSize float64) *Grid {
	n := pp.Len()
	return newGridPacked(pp, cellSize, directPerPoint*n+directSlack, rankedPerPoint*n+rankedSlack)
}

// newGridPacked is NewGridPacked with the layouts' cell budgets given:
// the table is direct when the extent holds at most maxDirect cells,
// ranked when it holds at most maxRanked, and listed otherwise.
func newGridPacked(pp *geo.PackedPoints, cellSize float64, maxDirect, maxRanked int) *Grid {
	if cellSize <= 0 {
		cellSize = 100
	}
	g := &Grid{
		pp:       pp,
		cellSize: cellSize,
	}
	n := pp.Len()
	if n == 0 {
		g.proj = geo.NewProjection(geo.Point{})
		return g
	}
	if n > math.MaxInt32 {
		panic("index: a grid takes fewer than 2³¹ points")
	}
	g.proj = pp.EnsureProjected()
	g.lats.Min, g.lats.Max = pp.LatBounds()
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range pp.X {
		minX = math.Min(minX, pp.X[i])
		minY = math.Min(minY, pp.Y[i])
		maxX = math.Max(maxX, pp.X[i])
		maxY = math.Max(maxY, pp.Y[i])
	}
	g.minX, g.minY = minX, minY
	// A tiny cell size over a wide extent must not overflow the cell
	// arithmetic: grow the cells until both axes fit the per-axis cap.
	// The axis dimensions are then checked against the layout budgets
	// BEFORE multiplying them — cols·rows itself can exceed an int for
	// extents the per-axis cap still allows.
	if span := math.Max(maxX-minX, maxY-minY); span/g.cellSize >= maxGridDim-1 {
		g.cellSize = span / (maxGridDim - 2)
	}
	g.cols = int((maxX-minX)/g.cellSize) + 1
	g.rows = int((maxY-minY)/g.cellSize) + 1
	fits := func(budget int) bool { return g.cols <= budget && g.rows <= budget/g.cols }

	g.ids = make([]int32, n)
	switch {
	case fits(maxDirect):
		g.start = make([]int32, g.cols*g.rows+1)
	case fits(maxRanked):
		words := g.cols*g.rows>>6 + 1
		g.occ = make([]uint64, words)
		g.occRank = make([]int32, words)
		for i := 0; i < n; i++ {
			k := g.cellKey(pp.X[i], pp.Y[i])
			g.occ[k>>6] |= 1 << (k & 63)
		}
		occupied := 0
		for w, word := range g.occ {
			g.occRank[w] = int32(occupied)
			occupied += bits.OnesCount64(word)
		}
		g.start = make([]int32, occupied+1)
	default:
		g.list()
		return g
	}
	// Counting sort: count each point into its cell's slot, turn the
	// counts into slot ends, then place the ids in descending order at
	// each slot's end, which leaves every slot at its cell's start and
	// every cell ascending.
	slots := len(g.start) - 1
	for i := 0; i < n; i++ {
		g.start[g.slotOf(i)]++
	}
	for s := 1; s < slots; s++ {
		g.start[s] += g.start[s-1]
	}
	g.start[slots] = int32(n)
	for i := n - 1; i >= 0; i-- {
		s := g.slotOf(i)
		g.start[s]--
		g.ids[g.start[s]] = int32(i)
	}
	return g
}

// slotOf returns the slot of point i's cell on a direct or ranked table.
func (g *Grid) slotOf(i int) int {
	k := g.cellKey(g.pp.X[i], g.pp.Y[i])
	if g.occ != nil {
		return g.rank(k)
	}
	return k
}

// list builds a listed table: it sorts the ids by (cell key, id), then
// lists each distinct key once with the start of its run.
func (g *Grid) list() {
	type cellID struct {
		key int
		id  int32
	}
	byCell := make([]cellID, len(g.ids))
	for i := range byCell {
		byCell[i] = cellID{g.cellKey(g.pp.X[i], g.pp.Y[i]), int32(i)}
	}
	slices.SortFunc(byCell, func(a, b cellID) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	occupied := 0
	for j, c := range byCell {
		g.ids[j] = c.id
		if j == 0 || c.key != byCell[j-1].key {
			occupied++
		}
	}
	g.keys = make([]int, 0, occupied)
	g.start = make([]int32, 0, occupied+1)
	for j, c := range byCell {
		if j == 0 || c.key != byCell[j-1].key {
			g.keys = append(g.keys, c.key)
			g.start = append(g.start, int32(j))
		}
	}
	g.start = append(g.start, int32(len(byCell)))
}

func (g *Grid) cellCoords(x, y float64) (cx, cy int) {
	cx = int((x - g.minX) / g.cellSize)
	cy = int((y - g.minY) / g.cellSize)
	return cx, cy
}

func (g *Grid) cellKey(x, y float64) int {
	cx, cy := g.cellCoords(x, y)
	return cy*g.cols + cx
}

// Len implements Index.
func (g *Grid) Len() int { return g.pp.Len() }

// Within implements Index.
func (g *Grid) Within(center geo.Point, radius float64) []int {
	return g.WithinAppend(center, radius, nil)
}

// WithinAppend implements Index: the IDs within radius of center are
// appended to buf and the extended slice is returned. See the Index
// documentation for the aliasing contract.
func (g *Grid) WithinAppend(center geo.Point, radius float64, buf []int) []int {
	return g.within(&g.cellTable, center, radius, buf)
}

// within is the one cell scan behind WithinAppend, over the cells of
// t: the grid's own or a view's.
func (g *Grid) within(t *cellTable, center geo.Point, radius float64, buf []int) []int {
	if g.pp.Len() == 0 || radius < 0 {
		return buf
	}
	// Exact tests read each point's latitude cosine from the packed Cos
	// column and take the center's once, the same bits as Haversine.
	cosC := geo.CosLat(center.Lat)
	// The planar fast path needs a sound distortion band for the built
	// extent and this query; when none exists (hull touches a pole, or
	// the radius is continent-scale relative to the hull latitudes) the
	// query degrades to exact spherical testing of every point.
	lo, hi, ok := g.lats.Band(g.proj.CosLat(), center.Lat, radius)
	if !ok {
		for id := 0; id < g.pp.Len(); id++ {
			if t.keep != nil && !t.keep[id] {
				continue
			}
			if geo.HaversineCos(center, cosC, g.pp.At(id), g.pp.Cos[id]) <= radius {
				buf = append(buf, id)
			}
		}
		return buf
	}
	c := g.proj.ToMeters(center)
	reach := radius*hi + 1e-9
	loX := int(math.Floor((c.X - reach - g.minX) / g.cellSize))
	hiX := int(math.Floor((c.X + reach - g.minX) / g.cellSize))
	loY := int(math.Floor((c.Y - reach - g.minY) / g.cellSize))
	hiY := int(math.Floor((c.Y + reach - g.minY) / g.cellSize))
	loX = max(loX, 0)
	loY = max(loY, 0)
	hiX = min(hiX, g.cols-1)
	hiY = min(hiY, g.rows-1)
	if loX > hiX || loY > hiY {
		return buf // the box misses the extent: no slot range to read
	}

	// Candidates clearly inside or outside by the planar metric skip the
	// exact spherical check; only the boundary shell — whose width the
	// extent's distortion bound just derived — pays for Haversine. The
	// planar distances stream out of the packed X/Y slices.
	rLo := radius * lo
	rHi := radius * hi
	px, py := g.pp.X, g.pp.Y
	test := func(id int, out []int) []int {
		dx := px[id] - c.X
		dy := py[id] - c.Y
		d := math.Sqrt(dx*dx + dy*dy)
		switch {
		case d <= rLo:
			return append(out, id)
		case d > rHi:
			return out
		case geo.HaversineCos(center, cosC, g.pp.At(id), g.pp.Cos[id]) <= radius:
			return append(out, id)
		}
		return out
	}
	// A listed table can hold far fewer cells than a wide query box
	// covers; sweeping its keys from the box's first row to its last
	// is then cheaper, in the same ascending key order. The box area is
	// compared in floating point: with per-axis sizes up to 2³¹ the
	// product can overflow an int.
	if t.keys != nil && float64(hiX-loX+1)*float64(hiY-loY+1) > float64(len(t.keys)) {
		a, b := t.search(loY*g.cols+loX, hiY*g.cols+hiX+1)
		for j := a; j < b; j++ {
			if cx := t.keys[j] % g.cols; cx < loX || cx > hiX {
				continue
			}
			for _, id := range t.run(j, j+1) {
				buf = test(int(id), buf)
			}
		}
		return buf
	}
	// One row of the box is one run of consecutive cell keys, so one
	// run of slots and one contiguous run of ids.
	for cy := loY; cy <= hiY; cy++ {
		a, b := cy*g.cols+loX, cy*g.cols+hiX+1
		switch {
		case t.occ != nil:
			a, b = t.rank(a), t.rank(b)
		case t.keys != nil:
			a, b = t.search(a, b)
		}
		for _, id := range t.run(a, b) {
			buf = test(int(id), buf)
		}
	}
	return buf
}
