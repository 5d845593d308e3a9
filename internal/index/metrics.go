package index

import (
	"sync/atomic"
	"time"

	"csdm/internal/geo"
	"csdm/internal/obs"
)

// metricsState is the package's process-metrics hook. Histograms are
// pre-resolved per backend at SetMetrics time, so a sampled query pays
// no map lookup and an unsampled query pays one atomic counter bump.
type metricsState struct {
	every uint64
	// per-Kind histograms, indexed by Kind (grid, kdtree, rtree).
	within    [3]*obs.Histogram // csdm_index_query_seconds{backend,op="within"}
	withinLen [3]*obs.Histogram // csdm_index_query_results{backend,op="within"}
}

var metricsHook atomic.Pointer[metricsState]

// DefaultSampleEvery is the default query-sampling period: one in every
// 64 queries is timed. Sampling keeps WithinAppend's allocation-free
// hot-loop contract intact — the unsampled 63/64 pay a single atomic
// increment, no clock reads.
const DefaultSampleEvery = 64

// SetMetrics wires indexes built by New to a process-lifetime metrics
// registry: every 1-in-every range queries is timed into
// csdm_index_query_seconds{backend,op="within"} and its result size
// recorded into csdm_index_query_results{backend,op="within"}.
// every <= 0 means DefaultSampleEvery; every == 1 times every query.
// Passing a nil registry detaches. Only the New factory instruments —
// direct NewGrid/NewKDTree/NewRTree constructions stay raw, so
// benchmarks and tests of the backends themselves are never perturbed.
func SetMetrics(r *obs.Registry, every int) {
	if r == nil {
		metricsHook.Store(nil)
		return
	}
	if every <= 0 {
		every = DefaultSampleEvery
	}
	r.Describe("csdm_index_query_seconds", "Sampled latency of spatial-index queries, by backend and operation.")
	r.Describe("csdm_index_query_results", "Sampled result sizes of spatial range queries, by backend.")
	st := &metricsState{every: uint64(every)}
	for _, k := range []Kind{KindGrid, KindKDTree, KindRTree} {
		b := k.String()
		st.within[k] = r.Histogram(obs.Label("csdm_index_query_seconds", "backend", b, "op", "within"), obs.DefBuckets)
		st.withinLen[k] = r.Histogram(obs.Label("csdm_index_query_results", "backend", b, "op", "within"), obs.SizeBuckets)
	}
	metricsHook.Store(st)
}

// sampled wraps an Index with 1-in-N query timing. The wrapper is only
// installed by New when SetMetrics has attached a registry, so the
// no-telemetry configuration has no extra indirection at all.
type sampled struct {
	Index
	kind Kind
	st   *metricsState
	n    atomic.Uint64
}

// tick reports whether this query is the 1-in-every sample.
func (s *sampled) tick() bool {
	return s.n.Add(1)%s.st.every == 0
}

func (s *sampled) Within(center geo.Point, radius float64) []int {
	if !s.tick() {
		return s.Index.Within(center, radius)
	}
	t0 := time.Now()
	ids := s.Index.Within(center, radius)
	s.st.within[s.kind].Observe(time.Since(t0).Seconds())
	s.st.withinLen[s.kind].Observe(float64(len(ids)))
	return ids
}

func (s *sampled) WithinAppend(center geo.Point, radius float64, buf []int) []int {
	if !s.tick() {
		return s.Index.WithinAppend(center, radius, buf)
	}
	t0 := time.Now()
	n0 := len(buf)
	out := s.Index.WithinAppend(center, radius, buf)
	s.st.within[s.kind].Observe(time.Since(t0).Seconds())
	s.st.withinLen[s.kind].Observe(float64(len(out) - n0))
	return out
}

// instrument wraps idx with sampling when the metrics hook is set.
func instrument(kind Kind, idx Index) Index {
	st := metricsHook.Load()
	if st == nil {
		return idx
	}
	return &sampled{Index: idx, kind: kind, st: st}
}
