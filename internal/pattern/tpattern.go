package pattern

import (
	"sort"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/seqpattern"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// TPattern is the grid-based spatiotemporal miner of Giannotti et al.
// (KDD 2007), the §2 pre-semantic baseline: space is partitioned into a
// uniform grid, dense cells merge into Regions of Interest, trajectories
// become ROI-id sequences, and PrefixSpan mines frequent ROI sequences.
// It needs no semantic recognition at all — which is exactly its
// limitation: mined patterns say where people move, never why, so they
// cannot support semantic queries or services. csdm ships it to
// quantify what the City Semantic Diagram adds.
type TPattern struct {
	// CellMeters is the grid granularity.
	CellMeters float64
	// MinCellVisits marks a cell dense when at least this many stay
	// points fall into it.
	MinCellVisits int
}

// NewTPattern returns the baseline with a 150 m grid and a density
// threshold matched to city-scale workloads.
func NewTPattern() *TPattern { return &TPattern{CellMeters: 150, MinCellVisits: 20} }

// Name implements Extractor.
func (t *TPattern) Name() string { return "T-Pattern" }

// Extract implements Extractor. Emitted patterns carry empty semantic
// items — the defining gap of the approach — with representatives at
// the matched stay points, and support/groups computed like the other
// extractors' (spatial+temporal containment only, since there are no
// tags to constrain). The grid aggregation and PrefixSpan passes are
// inherently sequential; the per-candidate δ_t/ρ filtering fans out
// over env's worker pool, with results re-aggregated in mined order so
// the output is worker-count independent.
func (t *TPattern) Extract(env stage.Env, db []trajectory.SemanticTrajectory, params Params) ([]Pattern, error) {
	ctx, tr, opt := env.Ctx, env.Trace, env.Opt
	root := env.StartSpan("extract." + t.Name())
	defer root.End()
	params = params.normalized()
	cell := t.CellMeters
	if cell <= 0 {
		cell = 150
	}
	minVisits := t.MinCellVisits
	if minVisits <= 0 {
		minVisits = 1
	}

	// Pass 1: cell popularity over all stay points.
	var all []geo.Point
	for _, st := range db {
		for _, sp := range st.Stays {
			all = append(all, sp.P)
		}
	}
	if len(all) == 0 {
		return nil, nil
	}
	proj := geo.NewProjection(geo.Centroid(all))
	type cellKey struct{ x, y int32 }
	keyOf := func(p geo.Point) cellKey {
		m := proj.ToMeters(p)
		return cellKey{int32(m.X / cell), int32(m.Y / cell)}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	visits := make(map[cellKey]int)
	for _, p := range all {
		visits[keyOf(p)]++
	}

	// Dense cells become ROIs; adjacent dense cells merge (union-find
	// over the 4-neighborhood), as in the original's region growing.
	var cells []cellKey
	for k, n := range visits {
		if n >= minVisits {
			cells = append(cells, k)
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].x != cells[b].x {
			return cells[a].x < cells[b].x
		}
		return cells[a].y < cells[b].y
	})
	parent := make([]int, len(cells))
	idx := make(map[cellKey]int, len(cells))
	for i, k := range cells {
		parent[i] = i
		idx[k] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, k := range cells {
		for _, nb := range []cellKey{{k.x + 1, k.y}, {k.x, k.y + 1}} {
			if j, ok := idx[nb]; ok {
				parent[find(i)] = find(j)
			}
		}
	}
	roiOf := make(map[cellKey]int, len(cells))
	roiIDs := make(map[int]int)
	for i, k := range cells {
		root := find(i)
		id, ok := roiIDs[root]
		if !ok {
			id = len(roiIDs)
			roiIDs[root] = id
		}
		roiOf[k] = id
	}

	// Pass 2: trajectories become ROI-id sequences (stays outside every
	// ROI get no item and fragment the match, as in the original).
	const noROI = seqpattern.Item(0xFFFF)
	seqs := make([]seqpattern.Sequence, len(db))
	for i, st := range db {
		seq := make(seqpattern.Sequence, st.Len())
		for k, sp := range st.Stays {
			if id, ok := roiOf[keyOf(sp.P)]; ok {
				seq[k] = seqpattern.Item(id)
			} else {
				seq[k] = noROI
			}
		}
		seqs[i] = seq
	}
	mined := seqpattern.Mine(seqs, seqpattern.Config{
		MinSupport: params.Sigma,
		MinLen:     params.MinLen,
		MaxLen:     params.MaxLen,
	}, opt)

	pfx := "extract." + t.Name()
	tr.Add(pfx+".coarse", int64(len(mined)))
	exec.Note(tr, len(mined), exec.Workers(opt.Workers))
	type candidateResult struct {
		pattern   *Pattern
		candidate bool
		pruned    bool
	}
	results, err := exec.ParallelMap(ctx, opt.Workers, len(mined), func(mi int) (candidateResult, error) {
		m := mined[mi]
		if containsItem(m.Items, noROI) {
			return candidateResult{}, nil
		}
		res := candidateResult{candidate: true}
		var support [][]trajectory.StayPoint
		for si, seqID := range m.SeqIDs {
			stays := make([]trajectory.StayPoint, len(m.Items))
			for k, pos := range m.Embeddings[si] {
				stays[k] = db[seqID].Stays[pos]
				stays[k].S = 0 // the baseline carries no semantics
			}
			if !respectsDeltaT(stays, params.DeltaT) {
				continue
			}
			support = append(support, stays)
		}
		if len(support) < params.Sigma {
			res.pruned = true
			return res, nil
		}
		// ρ density check per position.
		for k := 0; k < len(m.Items); k++ {
			pts := make([]geo.Point, len(support))
			for i := range support {
				pts[i] = support[i][k].P
			}
			if geo.Density(pts) < params.Rho {
				res.pruned = true
				return res, nil
			}
		}
		p := buildPattern(make([]poi.Semantics, len(m.Items)), support)
		res.pattern = &p
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Pattern
	var candidates, pruned int64
	for _, res := range results {
		if res.candidate {
			candidates++
		}
		if res.pruned {
			pruned++
		}
		if res.pattern != nil {
			out = append(out, *res.pattern)
		}
	}
	tr.Add(pfx+".candidates", candidates)
	tr.Add(pfx+".pruned", pruned)
	tr.Add(pfx+".patterns", int64(len(out)))
	return out, nil
}

func containsItem(items []seqpattern.Item, it seqpattern.Item) bool {
	for _, x := range items {
		if x == it {
			return true
		}
	}
	return false
}
