package csd

import (
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// Maintainer is the re-entrant, delta-capable counterpart of Build: it
// owns a City Semantic Diagram plus the intermediate construction state
// a one-shot Build discards — the per-POI popularity sums, the
// Algorithm 1 cluster membership per ε_p-connected component, and the
// per-cluster purification results — so that a batch of new stay
// points updates the diagram in time proportional to the dirty region
// instead of the city.
//
// The incremental result is bit-identical to a full Build on the union
// of all stay points, by construction rather than approximation:
//
//   - Popularity (Eq. 2–3): new stays only ever append ids, so the
//     fold over the retained POI strips adds a batch to the running
//     sums exactly as a full build over the union would. The batch is
//     not indexed and no POI is queried: each batch stay queries the
//     grids of the strips whose halo holds it, so the range work is in
//     proportion to the batch.
//   - Algorithm 1 factorizes exactly over the ε_p-connected components
//     of the static POI graph: cluster growth only follows ≤ ε_p edges,
//     so re-running growClusters on one component reproduces the full
//     run's clusters within it. A component is dirty only when some
//     member pair's α popularity-ratio predicate flipped; clean
//     components reuse their retained clusters outright.
//   - Algorithm 2 (purification) reads locations and categories, never
//     popularity, so a cluster whose membership survived the delta
//     reuses its retained purified units.
//   - Merging (Eq. 6–8) reads the popularity-weighted distributions of
//     every unit, and its union-find outcome is global — so it is
//     recomputed globally each delta. It is O(#units), orders of
//     magnitude cheaper than the phases above, and rerunning it is what
//     keeps the guarantee exact instead of halo-approximate (the one
//     deliberate divergence from a purely local re-merge; see
//     DESIGN.md §5i).
//
// A Maintainer is not safe for concurrent use; each ApplyDelta must
// complete before the next begins. The diagrams it returns are
// immutable and safe to serve concurrently, like Build's.
type Maintainer struct {
	params Params
	kind   index.Kind
	pois   []poi.POI
	kernel geo.GaussianKernel

	// stays counts the stay points seen so far; no stay is kept.
	stays int
	// pix is the POI side of the popularity fold, built once with the
	// initial diagram; the POIs are static, so every delta reuses it.
	pix popIndex
	// pop is the current canonical-order popularity. Diagrams share its
	// backing array: the maintainer never mutates it in place (every
	// delta copies first), so served generations stay immutable.
	pop []float64

	// cache is phase 2's per-component state (the static ε_p location
	// index, the component partition, per-component clusters, leftovers
	// and purified units), filled at construction and updated per delta.
	cache components

	gen     int64
	diagram *Diagram
}

// DeltaStats reports what one ApplyDelta did.
type DeltaStats struct {
	// Generation is the produced diagram's generation.
	Generation int64
	// BatchStays is the number of stay points in the applied batch.
	BatchStays int
	// AffectedPOIs is how many POIs had popularity updated (within R3σ
	// of some batch stay).
	AffectedPOIs int
	// DirtyComponents counts the ε_p components whose α-ratio predicate
	// flipped somewhere, forcing a clustering + purification re-run.
	DirtyComponents int
	// DirtyUnits counts the purified units recomputed in dirty
	// components; ReusedUnits counts the units carried over from the
	// retained state.
	DirtyUnits  int
	ReusedUnits int
}

// NewMaintainerEnv constructs the maintainer and its initial diagram
// (generation 1): it runs BuildEnv's construction — on env's worker pool and index backend, recording
// spans under "csd.maintain" — but keeps the per-component cache
// ApplyDelta needs. The initial diagram is bit-identical to BuildEnv's
// on the same inputs, with Generation 1.
func NewMaintainerEnv(env stage.Env, pois []poi.POI, stays []geo.Point, params Params) (*Maintainer, error) {
	root := env.StartSpan("csd.maintain")
	defer root.End()
	m := &Maintainer{params: params, kind: env.Opt.Index, pois: pois, stays: len(stays)}
	d, err := build(env, root, pois, stays, params, &m.pix, &m.cache)
	if err != nil {
		return nil, err
	}
	d.Generation = 1
	m.kernel, m.pop, m.gen, m.diagram = d.kernel, d.Pop, 1, d
	env.Trace.Add("csd.maintain.components", int64(len(m.cache.comps)))
	return m, nil
}

// Diagram returns the current generation's diagram.
func (m *Maintainer) Diagram() *Diagram { return m.diagram }

// Generation returns the current generation number (1 after
// construction, +1 per applied delta).
func (m *Maintainer) Generation() int64 { return m.gen }

// SetGeneration renumbers the current generation (and the diagram's
// lineage header) without touching any retained state — the hook a
// restarted ingester uses to continue a checkpoint directory's
// generation sequence instead of restarting at 1. The parent
// generation is left untouched: renumbering changes the label, not the
// derivation.
func (m *Maintainer) SetGeneration(gen int64) {
	m.gen = gen
	m.diagram.Generation = gen
}

// StayCount returns the number of stay points accumulated so far.
func (m *Maintainer) StayCount() int { return m.stays }

// ApplyDelta applies one batch of new stay points and returns the next
// generation's diagram: delta popularity over the batch only, α-flip
// dirty marking per ε_p component, Algorithm 1–2 re-runs restricted to
// the dirty components, and a global re-merge + finalize. The result is
// bit-identical to a full Build over the union of every stay point seen
// so far (same units, same member order, same popularity bits), for any
// worker count and index backend.
//
// On error (cancellation, deadline, injected fault) the maintainer's
// retained state is unchanged and the batch is not applied; the caller
// may retry.
func (m *Maintainer) ApplyDelta(env stage.Env, batch []geo.Point) (*Diagram, DeltaStats, error) {
	ctx, tr, opt := env.Ctx, env.Trace, env.Opt
	root := env.StartSpan("csd.delta")
	defer root.End()
	st := DeltaStats{BatchStays: len(batch)}

	// Delta popularity: fold the batch alone through the retained POI
	// strips into a copy of the running sums.
	sp := root.Start("delta.popularity")
	newPop := append([]float64(nil), m.pop...)
	touched := make([]bool, len(m.pois))
	if err := m.pix.fold(ctx, opt.Workers, geo.Pack(batch), newPop, touched); err != nil {
		sp.End()
		return nil, st, err
	}
	var affected []int
	for i, t := range touched {
		if t {
			affected = append(affected, i)
		}
	}
	sp.End()
	st.AffectedPOIs = len(affected)

	// Dirty marking: a component must re-cluster only when the α
	// popularity-ratio predicate flipped for some member pair — the one
	// input of Algorithm 1 that popularity feeds (locations, categories
	// and d_v are static). Checking affected×members pairs is
	// conservative and sound: growth examines a subset of those pairs,
	// so "no pair flipped" implies an identical re-run.
	sp = root.Start("delta.dirty")
	dirty := make(map[int]bool)
	for _, a := range affected {
		c := m.cache.of[a]
		if dirty[c] {
			continue
		}
		for _, b := range m.cache.comps[c].pois {
			if popRatioOK(m.pop[a], m.pop[b], m.params.Alpha) !=
				popRatioOK(newPop[a], newPop[b], m.params.Alpha) {
				dirty[c] = true
				break
			}
		}
	}
	sp.End()
	st.DirtyComponents = len(dirty)
	tr.Add("csd.delta.dirty_components", int64(len(dirty)))

	// Phase 2 on a working copy of the cache with the dirty components
	// emptied, so it regrows exactly those against the static location
	// index and the new popularity. Merge and finalize run on the
	// construction-time backend. The maintainer commits only after
	// everything succeeded.
	view := m.cache
	view.comps = append([]compState(nil), m.cache.comps...)
	for c := range dirty {
		view.comps[c] = compState{pois: view.comps[c].pois}
	}
	d := &Diagram{
		Params:           m.params,
		POIs:             m.pois,
		Pop:              newPop,
		kernel:           m.kernel,
		Generation:       m.gen + 1,
		ParentGeneration: m.gen,
	}
	penv := env
	penv.Opt.Index = m.kind
	if err := d.phase2(penv, root, "delta.", &view); err != nil {
		return nil, st, err
	}
	for c, cs := range view.comps {
		n := len(cs.clusters)
		if !m.params.SkipPurification {
			n = 0
			for _, us := range cs.purified {
				n += len(us)
			}
		}
		if dirty[c] {
			st.DirtyUnits += n
		} else {
			st.ReusedUnits += n
		}
	}
	tr.Add("csd.delta.dirty_units", int64(st.DirtyUnits))

	m.stays += len(batch)
	m.pop, m.cache, m.diagram, m.gen = newPop, view, d, d.Generation
	st.Generation = m.gen
	tr.Add("csd.delta.applied", 1)
	return d, st, nil
}
