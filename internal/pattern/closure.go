package pattern

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strconv"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// closureComputer evaluates a finished pattern's true support and
// groups per Definitions 8–11: the set of database trajectories that
// contain or reachable contain the pattern's representative trajectory
// under (ε_t, δ_t, ⊇) containment, and the per-position collections of
// their counterpart stay points.
//
// A naive closure scans the whole database per BFS level. Three
// optimizations keep it fast without changing the result:
//
//   - semantic masking: every target's semantics are positionwise
//     supersets of the representative's, so only a trajectory holding
//     stays k0 < … < k_{m−1} with S ⊇ rep[j].S can join the closure
//     (see carries); the per-worker grid view holds only those
//     trajectories' stays;
//   - spatial prefiltering: a trajectory can only contain a target if it
//     has stays within ε_t of the target's first and last stay, so a
//     grid index over all stays shortlists candidates;
//   - frontier deduplication: counterpart sequences whose stays
//     quantize to the same ε_t/4 cells (with equal semantics) expand to
//     near-identical searches, so only one representative is kept.
type closureComputer struct {
	db     []trajectory.SemanticTrajectory
	params trajectory.ContainParams
	// stayIdx indexes every stay of every trajectory; stayTraj maps the
	// indexed stay back to its trajectory. grid is stayIdx's grid, nil
	// on the other backends.
	stayIdx  index.Index
	grid     *index.Grid
	stayTraj []int
	quantum  float64
	// proj is a fixed projection for quantizing counterpart keys; it
	// must be shared so that spatially distinct counterparts get
	// distinct keys.
	proj geo.Projection
}

// newClosureComputer indexes the database once per extraction run on
// the requested backend.
func newClosureComputer(db []trajectory.SemanticTrajectory, params Params, kind index.Kind) *closureComputer {
	cc := &closureComputer{
		db: db,
		params: trajectory.ContainParams{
			MaxDist: params.EpsT,
			MaxGap:  params.DeltaT,
		},
		quantum: math.Max(params.EpsT/4, 1),
	}
	var pts []geo.Point
	for ti, st := range db {
		for _, sp := range st.Stays {
			pts = append(pts, sp.P)
			cc.stayTraj = append(cc.stayTraj, ti)
		}
	}
	cc.stayIdx = index.New(kind, pts, math.Max(params.EpsT, 50))
	cc.grid = index.AsGrid(cc.stayIdx)
	cc.proj = geo.NewProjection(geo.Centroid(pts))
	return cc
}

// closureScratch is the per-worker reusable state of the closure BFS.
// The computer itself is shared across workers, so every mutable buffer
// lives here and is reused across the many patterns one worker
// finalizes. The per-trajectory sets are epoch-stamped marks rather
// than maps, so starting a new set costs one increment. Results never
// depend on leftover scratch contents, so the reuse cannot perturb
// worker-count determinism.
type closureScratch struct {
	ids      []int // range-query buffer
	match    []int // Match buffer: counterpart indices of one candidate
	cand     []int // candidate trajectory list, valid until the next candidates call
	near     marks // candidates: near the first endpoint, or already emitted
	found    marks // supportGroups: trajectories in the closure so far
	tried    map[string]bool
	frontier []trajectory.SemanticTrajectory
	next     []trajectory.SemanticTrajectory
	keyBuf   []byte
	// The semantic mask: keep[ti] reports that trajectory ti carries
	// maskSems, the semantic sequence of the representative the mask
	// was built for by maskOf. view is maskOf's grid view over the kept
	// trajectories' stays, used when maskOf has a grid.
	maskOf   *closureComputer
	maskSems []poi.Semantics
	keep     []bool
	view     index.GridView
}

func newClosureScratch() *closureScratch {
	return &closureScratch{tried: make(map[string]bool)}
}

// marks is a reusable set of database trajectory ids. An id is in the
// set opened by stamp when its mark equals that stamp; a stale mark
// from an earlier set is always smaller than any stamp taken since, so
// opening a set needs no clearing. The marks are cleared only when the
// epoch would wrap.
type marks struct {
	at    []uint32
	epoch uint32
}

// stamp opens a new, empty set over ids [0, n) and returns its stamp.
func (m *marks) stamp(n int) uint32 {
	if len(m.at) < n {
		m.at = make([]uint32, n)
	}
	if m.epoch == math.MaxUint32 {
		clear(m.at)
		m.epoch = 0
	}
	m.epoch++
	return m.epoch
}

// carries reports whether stays hold a subsequence k0 < … < k_{m−1}
// with stays[k_j].S ⊇ sems[j]. Taking the leftmost fit for each
// position in turn finds one whenever one exists.
func carries(stays []trajectory.StayPoint, sems []poi.Semantics) bool {
	j := 0
	for _, sp := range stays {
		if j == len(sems) {
			break
		}
		if sp.S.Contains(sems[j]) {
			j++
		}
	}
	return j == len(sems)
}

// mask points sc's semantic mask at the representative rep, building
// it only when the mask sc holds was made for other semantics. By
// Definition 7(iii) each counterpart stay's semantics contain its
// target's, so by induction from rep every frontier target t has
// t[j].S ⊇ rep[j].S, and a trajectory matching t carries rep's
// semantic sequence: trajectories the mask rejects never join the
// closure.
func (cc *closureComputer) mask(rep []trajectory.StayPoint, sc *closureScratch) {
	if sc.maskOf == cc && slices.EqualFunc(sc.maskSems, rep, func(s poi.Semantics, sp trajectory.StayPoint) bool {
		return s == sp.S
	}) {
		return
	}
	sc.maskOf = cc
	sc.maskSems = sc.maskSems[:0]
	for _, sp := range rep {
		sc.maskSems = append(sc.maskSems, sp.S)
	}
	sc.keep = slices.Grow(sc.keep[:0], len(cc.db))[:len(cc.db)]
	for ti, st := range cc.db {
		sc.keep[ti] = carries(st.Stays, sc.maskSems)
	}
	if cc.grid != nil {
		sc.view.Restrict(cc.grid, func(id int) bool { return sc.keep[cc.stayTraj[id]] })
	}
}

// within answers a closure range query: on the grid backend from sc's
// view, which holds only the stays of trajectories the mask keeps, and
// otherwise from the full index.
func (cc *closureComputer) within(center geo.Point, sc *closureScratch) []int {
	if cc.grid != nil {
		return sc.view.WithinAppend(center, cc.params.MaxDist, sc.ids[:0])
	}
	return cc.stayIdx.WithinAppend(center, cc.params.MaxDist, sc.ids[:0])
}

// candidates returns the database trajectories that the mask in sc
// keeps and that have stays within ε_t of both endpoints of the
// target, in the order of the last endpoint's range query. The
// returned slice is sc's and only valid until the next candidates call
// on the same scratch.
func (cc *closureComputer) candidates(target trajectory.SemanticTrajectory, sc *closureScratch) []int {
	if target.Len() == 0 {
		return nil
	}
	first := target.Stays[0].P
	last := target.Stays[target.Len()-1].P
	// One mark slice serves both sets: a trajectory near the first
	// endpoint carries nearFirst until it is emitted, then emitted.
	// A grid view returns only kept trajectories' stays, so there the
	// keep test never fails; the other backends return every stay.
	nearFirst := sc.near.stamp(len(cc.db))
	emitted := sc.near.stamp(len(cc.db))
	mark := sc.near.at
	sc.ids = cc.within(first, sc)
	for _, si := range sc.ids {
		if ti := cc.stayTraj[si]; sc.keep[ti] {
			mark[ti] = nearFirst
		}
	}
	out := sc.cand[:0]
	sc.ids = cc.within(last, sc)
	for _, si := range sc.ids {
		ti := cc.stayTraj[si]
		if mark[ti] == nearFirst {
			mark[ti] = emitted
			out = append(out, ti)
		}
	}
	sc.cand = out
	return out
}

// key quantizes a counterpart sequence for frontier deduplication. The
// shared projection keeps keys tied to absolute positions.
func (cc *closureComputer) key(st trajectory.SemanticTrajectory, sc *closureScratch) string {
	out := sc.keyBuf[:0]
	for _, sp := range st.Stays {
		m := cc.proj.ToMeters(sp.P)
		out = strconv.AppendInt(out, int64(math.Floor(m.X/cc.quantum)), 10)
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(math.Floor(m.Y/cc.quantum)), 10)
		out = append(out, ':')
		out = strconv.AppendUint(out, uint64(sp.S), 10)
		out = append(out, ';')
	}
	sc.keyBuf = out
	return string(out)
}

// supportGroups runs the closure BFS for one pattern representative and
// returns the support count and the per-position groups (Definition 10:
// the representative's own stays are members of their groups).
func (cc *closureComputer) supportGroups(rep []trajectory.StayPoint, sc *closureScratch) (int, [][]trajectory.StayPoint) {
	m := len(rep)
	cc.mask(rep, sc)
	groups := make([][]trajectory.StayPoint, m)
	query := trajectory.SemanticTrajectory{Stays: rep}

	inClosure := sc.found.stamp(len(cc.db))
	found := sc.found.at
	support := 0
	clear(sc.tried)
	tried := sc.tried
	tried[cc.key(query, sc)] = true
	frontier := append(sc.frontier[:0], query)
	next := sc.next[:0]

	if cap(sc.match) < m {
		sc.match = make([]int, m)
	}
	match := sc.match[:m]

	for len(frontier) > 0 {
		next = next[:0]
		for _, target := range frontier {
			if !cc.params.Admits(target) {
				continue
			}
			for _, ti := range cc.candidates(target, sc) {
				if found[ti] == inClosure || !cc.params.Match(cc.db[ti], target, match) {
					continue
				}
				found[ti] = inClosure
				support++
				cp := make([]trajectory.StayPoint, m)
				for j, k := range match {
					cp[j] = cc.db[ti].Stays[k]
					groups[j] = append(groups[j], cp[j])
				}
				cpTraj := trajectory.SemanticTrajectory{Stays: cp}
				if k := cc.key(cpTraj, sc); !tried[k] {
					tried[k] = true
					next = append(next, cpTraj)
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	// Definition 10 includes sp_j itself in its group; as the
	// representative is usually a member of some closure counterpart,
	// add it only where it is not already present.
	for j, sp := range rep {
		present := false
		for _, g := range groups[j] {
			if g == sp {
				present = true
				break
			}
		}
		if !present {
			groups[j] = append(groups[j], sp)
		}
	}
	return support, groups
}

// dedupeMaximal keeps only maximal patterns: a pattern is dropped when
// another pattern of the same length sits at the same locations (reps
// within ε_t at every position) with positionwise superset semantics.
// Without this filter, tag flicker in the recognition stage makes one
// physical flow surface as a stack of near-duplicate patterns — one per
// tag flavor — inflating both pattern count and coverage. Reporting
// maximal patterns is the sequential-pattern-mining norm.
func dedupeMaximal(ps []Pattern, epsT float64) []Pattern {
	drop := make([]bool, len(ps))
	for i := range ps {
		if drop[i] {
			continue
		}
		for j := range ps {
			if i == j || drop[j] || len(ps[j].Stays) != len(ps[i].Stays) {
				continue
			}
			if subsumes(ps[j], ps[i], epsT) {
				// Identical semantics: keep the better-supported one
				// (ties break toward the earlier pattern).
				if sameItems(ps[i], ps[j]) &&
					(ps[i].Support > ps[j].Support || (ps[i].Support == ps[j].Support && i < j)) {
					continue
				}
				drop[i] = true
				break
			}
		}
	}
	out := ps[:0]
	for i := range ps {
		if !drop[i] {
			out = append(out, ps[i])
		}
	}
	return out
}

// subsumes reports whether b covers a: same length, positionwise
// superset items, and co-located representatives.
func subsumes(b, a Pattern, epsT float64) bool {
	for k := range a.Stays {
		if !b.Items[k].Contains(a.Items[k]) {
			return false
		}
		if geo.Haversine(b.Stays[k].P, a.Stays[k].P) > epsT {
			return false
		}
	}
	return true
}

func sameItems(a, b Pattern) bool {
	for k := range a.Items {
		if a.Items[k] != b.Items[k] {
			return false
		}
	}
	return true
}

// finalize recomputes every pattern's support and groups over the
// containment closure (the paper's Table 2 definition of support and
// Definition 10 groups), replacing the refinement-cluster approximation
// built by buildPattern. Patterns are independent, so the closures run
// on the worker pool; pattern i's support/groups land back at slot i,
// keeping the output worker-count independent. The pool visits the
// patterns stably sorted by their representatives' semantics, so a
// worker's scratch rebuilds its mask and grid view about once per
// distinct semantic sequence rather than once per pattern.
func finalize(ctx context.Context, db []trajectory.SemanticTrajectory, ps []Pattern, params Params, opt exec.Options) ([]Pattern, error) {
	if len(ps) == 0 {
		return ps, nil
	}
	ps = dedupeMaximal(ps, params.EpsT)
	cc := newClosureComputer(db, params, opt.Index)
	scratch := make([]*closureScratch, exec.Slots(opt.Workers, len(ps)))
	for i := range scratch {
		scratch[i] = newClosureScratch()
	}
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return slices.CompareFunc(ps[a].Stays, ps[b].Stays, func(x, y trajectory.StayPoint) int {
			return cmp.Compare(x.S, y.S)
		})
	})
	err := exec.ParallelForSlots(ctx, opt.Workers, len(ps), func(slot, k int) error {
		i := order[k]
		sup, groups := cc.supportGroups(ps[i].Stays, scratch[slot])
		ps[i].Support = sup
		ps[i].Groups = groups
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}
