// Package pattern implements fine-grained pattern extraction (§4.3):
// PrefixSpan detects coarse semantic patterns, and a refinement stage
// turns each coarse pattern into spatially tight fine-grained patterns
// (Definition 11). Three refiners are provided: the paper's
// CounterpartCluster (Algorithm 4, OPTICS-based), and the two baselines
// it is compared against — Splitter [17] (Mean-Shift top-down split)
// and SDBSCAN [19] (DBSCAN split). All three honor the universal
// parameters σ (support), δ_t (temporal constraint) and ρ (density).
package pattern

import (
	"context"
	"time"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/seqpattern"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// Params are the universal mining parameters of §5.
type Params struct {
	// Sigma σ is the support threshold: the minimum number of
	// trajectories a fine-grained pattern must represent.
	Sigma int
	// DeltaT δ_t bounds the time interval between consecutive stay
	// points of a supporting trajectory.
	DeltaT time.Duration
	// Rho ρ is the density threshold (points/m²) every position group
	// must reach.
	Rho float64
	// EpsT ε_t is the location-proximity bound (meters) of the
	// containment relation (Definition 7) used when computing a
	// pattern's support and groups.
	EpsT float64
	// MinLen/MaxLen bound the pattern length in stay points.
	MinLen int
	MaxLen int
}

// DefaultParams are the paper's normal condition: σ = 50, δ_t = 60 min,
// ρ = 0.002 m⁻², with ε_t set to the R3σ GPS envelope (100 m).
func DefaultParams() Params {
	return Params{Sigma: 50, DeltaT: 60 * time.Minute, Rho: 0.002, EpsT: 100, MinLen: 2, MaxLen: 5}
}

// normalized fills unset optional fields: a zero ε_t falls back to the
// default 100 m GPS envelope so that support evaluation never runs with
// an impossible zero-distance containment bound.
func (p Params) normalized() Params {
	if p.EpsT <= 0 {
		p.EpsT = 100
	}
	return p
}

// Pattern is one fine-grained pattern: a representative stay-point
// sequence plus the per-position groups (Definition 10) of the
// supporting trajectories, kept for the evaluation metrics.
type Pattern struct {
	// Stays is the representative sequence: per position, the group
	// member closest to the group centroid, with the group's mean
	// timestamp and the coarse pattern's semantic property.
	Stays []trajectory.StayPoint
	// Items is the coarse semantic sequence the pattern refines.
	Items []poi.Semantics
	// Groups[k] collects the k-th stay points of all supporting
	// trajectories.
	Groups [][]trajectory.StayPoint
	// Support is the number of supporting trajectories.
	Support int
}

// Len returns the pattern length in stay points.
func (p Pattern) Len() int { return len(p.Stays) }

// Extractor mines fine-grained patterns from an annotated semantic
// trajectory database. Extraction runs under a stage environment (see
// internal/stage): env carries the cancellation context, the telemetry
// trace — spans under "extract.<name>" plus counters for coarse
// patterns mined, candidates generated, candidates pruned by the σ/ρ
// thresholds, and patterns surviving — and the execution-layer options
// (worker budget, spatial backend). The mined pattern set is identical
// for any worker budget; a canceled env.Ctx aborts with its error. A
// zero environment (stage.Background()) degrades to plain sequential,
// untraced mining.
type Extractor interface {
	// Name identifies the extractor in experiment reports.
	Name() string
	// Extract mines all fine-grained patterns under the given params.
	Extract(env stage.Env, db []trajectory.SemanticTrajectory, params Params) ([]Pattern, error)
}

// extractStages runs the shared coarse-detection → refinement →
// closure skeleton with spans and counters keyed by the extractor
// name. refine receives the trace (via env) so per-candidate counts
// land on the same counters from the refinement workers.
func extractStages(env stage.Env, name string, db []trajectory.SemanticTrajectory, params Params, refine func(coarsePattern) []Pattern) ([]Pattern, error) {
	tr := env.Trace
	root := env.StartSpan("extract." + name)
	defer root.End()

	sp := root.Start("prefixspan")
	coarse, err := minePrefixSpan(env.Ctx, db, params, env.Opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Add("extract."+name+".coarse", int64(len(coarse)))

	sp = root.Start("refine")
	exec.Note(tr, len(coarse), exec.Workers(env.Opt.Workers))
	out, err := refineAll(env.Ctx, env.Opt.Workers, coarse, refine)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = root.Start("closure")
	final, err := finalize(env.Ctx, db, out, params, env.Opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Add("extract."+name+".deduped", int64(len(out)-len(final)))
	tr.Add("extract."+name+".patterns", int64(len(final)))
	return final, nil
}

// coarsePattern is one PrefixSpan result resolved to stay points:
// support trajectories with, for each, the stay matched to each pattern
// position.
type coarsePattern struct {
	items []poi.Semantics
	// stays[i][k] is Pt^k of supporting trajectory i.
	stays [][]trajectory.StayPoint
	// trajIDs[i] is the database index of supporting trajectory i.
	trajIDs []int
}

// minePrefixSpan runs PrefixSpan over the semantic item sequences of db
// and materializes the coarse patterns. Items are whole semantic
// properties compared by equality, as in the paper's coarse detection
// (§4.3: "∃O = {o_1, …, o_m} … sp_ij.s = o_j"); the looser superset
// semantics of Definition 7 enters later, when a finished pattern's
// support and groups are computed over the containment closure.
// Unannotated stays carry the empty property, which forms no frequent
// item worth keeping: patterns containing it are dropped. A canceled
// ctx aborts the search with ctx.Err().
func minePrefixSpan(ctx context.Context, db []trajectory.SemanticTrajectory, params Params, opt exec.Options) ([]coarsePattern, error) {
	seqs := make([]seqpattern.Sequence, len(db))
	for i, st := range db {
		seq := make(seqpattern.Sequence, st.Len())
		for k, sp := range st.Stays {
			seq[k] = seqpattern.Item(sp.S)
		}
		seqs[i] = seq
	}
	mined, err := seqpattern.Mine(ctx, seqs, seqpattern.Config{
		MinSupport: params.Sigma,
		MinLen:     params.MinLen,
		MaxLen:     params.MaxLen,
	}, opt)
	if err != nil {
		return nil, err
	}
	var out []coarsePattern
	for _, m := range mined {
		if hasEmptyItem(m.Items) {
			continue
		}
		cp := coarsePattern{items: make([]poi.Semantics, len(m.Items))}
		for k, it := range m.Items {
			cp.items[k] = poi.Semantics(it)
		}
		for si, seqID := range m.SeqIDs {
			stays := make([]trajectory.StayPoint, len(m.Items))
			for k, pos := range m.Embeddings[si] {
				stays[k] = db[seqID].Stays[pos]
			}
			cp.stays = append(cp.stays, stays)
			cp.trajIDs = append(cp.trajIDs, seqID)
		}
		out = append(out, cp)
	}
	return out, nil
}

// refineAll refines every coarse pattern on the worker pool (coarse
// patterns are independent) and concatenates the results in input
// order, so the pattern list is the same for any worker budget.
func refineAll(ctx context.Context, workers int, coarse []coarsePattern, refine func(coarsePattern) []Pattern) ([]Pattern, error) {
	results, err := exec.ParallelMap(ctx, workers, len(coarse), func(i int) ([]Pattern, error) {
		return refine(coarse[i]), nil
	})
	if err != nil {
		return nil, err
	}
	var out []Pattern
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

func hasEmptyItem(items []seqpattern.Item) bool {
	for _, it := range items {
		if poi.Semantics(it).IsEmpty() {
			return true
		}
	}
	return false
}

// respectsDeltaT reports whether the matched stays of one supporting
// trajectory keep every consecutive time gap within δ_t.
func respectsDeltaT(stays []trajectory.StayPoint, deltaT time.Duration) bool {
	for k := 1; k < len(stays); k++ {
		gap := stays[k].T.Sub(stays[k-1].T)
		if gap < 0 {
			gap = -gap
		}
		if gap > deltaT {
			return false
		}
	}
	return true
}

// groupPoints extracts the coordinates of a stay-point group.
func groupPoints(group []trajectory.StayPoint) []geo.Point {
	pts := make([]geo.Point, len(group))
	for i, sp := range group {
		pts[i] = sp.P
	}
	return pts
}

// buildPattern materializes a fine-grained pattern from its supporting
// trajectories' matched stays (Algorithm 4 lines 18–20): per position,
// the representative is the member closest to the group centroid and
// the timestamp is the group average.
func buildPattern(items []poi.Semantics, support [][]trajectory.StayPoint) Pattern {
	m := len(items)
	p := Pattern{
		Items:   items,
		Support: len(support),
		Groups:  make([][]trajectory.StayPoint, m),
		Stays:   make([]trajectory.StayPoint, m),
	}
	for k := 0; k < m; k++ {
		group := make([]trajectory.StayPoint, len(support))
		for i := range support {
			group[i] = support[i][k]
		}
		p.Groups[k] = group
		pts := groupPoints(group)
		rep := geo.MedoidIndex(pts)
		p.Stays[k] = trajectory.StayPoint{
			P: group[rep].P,
			T: meanTime(group),
			S: items[k],
		}
	}
	return p
}

func meanTime(group []trajectory.StayPoint) time.Time {
	if len(group) == 0 {
		return time.Time{}
	}
	base := group[0].T
	var sum int64
	for _, sp := range group {
		sum += sp.T.Sub(base).Nanoseconds()
	}
	return base.Add(time.Duration(sum / int64(len(group))))
}
