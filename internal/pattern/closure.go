package pattern

import (
	"context"
	"math"
	"strconv"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/trajectory"
)

// closureComputer evaluates a finished pattern's true support and
// groups per Definitions 8–11: the set of database trajectories that
// contain or reachable contain the pattern's representative trajectory
// under (ε_t, δ_t, ⊇) containment, and the per-position collections of
// their counterpart stay points.
//
// A naive closure scans the whole database per BFS level. Two
// optimizations keep it fast without changing the result:
//
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
	// indexed stay back to its trajectory.
	stayIdx  index.Index
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
	cand     []int // candidate trajectory list, valid until the next candidates call
	near     marks // candidates: near the first endpoint, or already emitted
	found    marks // supportGroups: trajectories in the closure so far
	tried    map[string]bool
	frontier []trajectory.SemanticTrajectory
	next     []trajectory.SemanticTrajectory
	keyBuf   []byte
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

// candidates returns the database trajectories having stays within
// ε_t of both endpoints of the target, in the order of the last
// endpoint's range query. The returned slice is sc's and only valid
// until the next candidates call on the same scratch.
func (cc *closureComputer) candidates(target trajectory.SemanticTrajectory, sc *closureScratch) []int {
	if target.Len() == 0 {
		return nil
	}
	first := target.Stays[0].P
	last := target.Stays[target.Len()-1].P
	// One mark slice serves both sets: a trajectory near the first
	// endpoint carries nearFirst until it is emitted, then emitted.
	nearFirst := sc.near.stamp(len(cc.db))
	emitted := sc.near.stamp(len(cc.db))
	mark := sc.near.at
	sc.ids = cc.stayIdx.WithinAppend(first, cc.params.MaxDist, sc.ids[:0])
	for _, si := range sc.ids {
		mark[cc.stayTraj[si]] = nearFirst
	}
	out := sc.cand[:0]
	sc.ids = cc.stayIdx.WithinAppend(last, cc.params.MaxDist, sc.ids[:0])
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

	for len(frontier) > 0 {
		next = next[:0]
		for _, target := range frontier {
			for _, ti := range cc.candidates(target, sc) {
				if found[ti] == inClosure {
					continue
				}
				idxs, ok := trajectory.Contains(cc.db[ti], target, cc.params)
				if !ok {
					continue
				}
				found[ti] = inClosure
				support++
				cp := make([]trajectory.StayPoint, len(idxs))
				for j, k := range idxs {
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
// keeping the output worker-count independent.
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
	err := exec.ParallelForSlots(ctx, opt.Workers, len(ps), func(slot, i int) error {
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
