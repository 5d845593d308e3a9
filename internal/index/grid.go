package index

import (
	"math"
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

// cellTable buckets point IDs by grid cell. Dense tables store the
// cells contiguously: ids holds point IDs grouped by cell in ascending
// cell order, ascending within each cell, cellStart[c]..cellStart[c+1]
// delimiting cell c. When the grid would need more than maxDenseCells
// cells, the sparse map is used instead, each cell's IDs ascending, and
// keys lists its occupied cell keys in ascending order, so a sweep of
// the occupied cells visits them in the box loop's order.
type cellTable struct {
	ids       []int
	cellStart []int
	sparse    map[int][]int
	keys      []int
	// keep, when set, is the membership of a GridView by point ID. The
	// view's cells already hold only its members; keep filters the
	// exact fallback, which scans every ID instead of the cells.
	keep []bool
}

// cell returns the point IDs of cell key k.
func (t *cellTable) cell(k int) []int {
	if t.cellStart != nil {
		return t.ids[t.cellStart[k]:t.cellStart[k+1]]
	}
	return t.sparse[k]
}

// maxDenseCells bounds the contiguous cell table; beyond it the grid
// falls back to a sparse map (huge extents with tiny cells).
const maxDenseCells = 1 << 22

// maxGridDim caps the cell count of a single axis. Keeping each axis
// under 2³¹ guarantees the combined cell key cy·cols+cx fits a 64-bit
// int, so sparse keys stay unique even for extreme extent/cell-size
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
func NewGridPacked(pp *geo.PackedPoints, cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = 100
	}
	g := &Grid{
		pp:       pp,
		cellSize: cellSize,
	}
	if pp.Len() == 0 {
		g.proj = geo.NewProjection(geo.Point{})
		return g
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
	// The axis dimensions are then checked against the dense-table
	// budget BEFORE multiplying them — cols·rows itself can exceed an
	// int for extents the per-axis cap still allows.
	if span := math.Max(maxX-minX, maxY-minY); span/g.cellSize >= maxGridDim-1 {
		g.cellSize = span / (maxGridDim - 2)
	}
	g.cols = int((maxX-minX)/g.cellSize) + 1
	g.rows = int((maxY-minY)/g.cellSize) + 1

	n := pp.Len()
	if g.cols <= maxDenseCells && g.rows <= maxDenseCells/g.cols {
		// Counting-sort the points into a contiguous cell table.
		nCells := g.cols * g.rows
		g.cellStart = make([]int, nCells+1)
		keys := make([]int, n)
		for i := 0; i < n; i++ {
			keys[i] = g.cellKey(pp.X[i], pp.Y[i])
			g.cellStart[keys[i]+1]++
		}
		for c := 0; c < nCells; c++ {
			g.cellStart[c+1] += g.cellStart[c]
		}
		g.ids = make([]int, n)
		fill := make([]int, nCells)
		for i, k := range keys {
			g.ids[g.cellStart[k]+fill[k]] = i
			fill[k]++
		}
	} else {
		g.sparse = make(map[int][]int)
		for i := 0; i < n; i++ {
			k := g.cellKey(pp.X[i], pp.Y[i])
			if g.sparse[k] == nil {
				g.keys = append(g.keys, k)
			}
			g.sparse[k] = append(g.sparse[k], i)
		}
		slices.Sort(g.keys)
	}
	return g
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
	// On a sparse grid a wide query box can cover far more cells than
	// the map holds entries; iterating the occupied cells, in ascending
	// key order, is cheaper and returns the box loop's order. The box
	// area is compared in floating point: with per-axis sizes up to 2³¹
	// the product can overflow an int.
	if t.sparse != nil && float64(hiX-loX+1)*float64(hiY-loY+1) > float64(len(t.keys)) {
		for _, key := range t.keys {
			cx, cy := key%g.cols, key/g.cols
			if cx < loX || cx > hiX || cy < loY || cy > hiY {
				continue
			}
			for _, id := range t.sparse[key] {
				buf = test(id, buf)
			}
		}
		return buf
	}
	for cy := loY; cy <= hiY; cy++ {
		for cx := loX; cx <= hiX; cx++ {
			for _, id := range t.cell(cy*g.cols + cx) {
				buf = test(id, buf)
			}
		}
	}
	return buf
}
