package csd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/stage"
	"csdm/internal/synth"
)

// maintWorkload builds a small synthetic city whose stay stream is
// large enough that contiguous batch splits flip α-ratio predicates
// (i.e. the delta path actually exercises dirty re-clustering, not just
// the reuse path).
func maintWorkload(t testing.TB) ([]geo.Point, *synth.City) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 7
	cfg.NumPOIs = 400
	cfg.NumPassengers = 80
	cfg.Days = 4
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	stays := make([]geo.Point, 0, 2*len(w.Journeys))
	for _, j := range w.Journeys {
		stays = append(stays, j.Pickup, j.Dropoff)
	}
	return stays, city
}

// contiguousSplit cuts stays into k contiguous batches at deterministic
// but uneven boundaries. Contiguity matters: stay ids are assigned in
// stream order, so a batch must extend the id sequence, never permute
// it.
func contiguousSplit(stays []geo.Point, k int) [][]geo.Point {
	batches := make([][]geo.Point, 0, k)
	n := len(stays)
	lo := 0
	for b := 0; b < k; b++ {
		hi := (n*(b+1) + (b*7)%13) / k
		if b == k-1 || hi > n {
			hi = n
		}
		if hi < lo {
			hi = lo
		}
		batches = append(batches, stays[lo:hi])
		lo = hi
	}
	return batches
}

func envWith(workers int, kind index.Kind) stage.Env {
	env := stage.Background()
	env.Opt = exec.Options{Workers: workers, Index: kind}
	return env
}

// requireSameDiagram asserts two diagrams are bit-identical in every
// field the incremental contract covers: popularity bits, unit count,
// unit membership and order, and the derived unitOf mapping.
func requireSameDiagram(t *testing.T, want, got *Diagram) {
	t.Helper()
	if len(want.Pop) != len(got.Pop) {
		t.Fatalf("Pop length: want %d, got %d", len(want.Pop), len(got.Pop))
	}
	for i := range want.Pop {
		if want.Pop[i] != got.Pop[i] {
			t.Fatalf("Pop[%d]: want %v, got %v (bit mismatch)", i, want.Pop[i], got.Pop[i])
		}
	}
	if len(want.Units) != len(got.Units) {
		t.Fatalf("unit count: want %d, got %d", len(want.Units), len(got.Units))
	}
	for u := range want.Units {
		if !reflect.DeepEqual(want.Units[u].Members, got.Units[u].Members) {
			t.Fatalf("unit %d members: want %v, got %v", u, want.Units[u].Members, got.Units[u].Members)
		}
		if want.Units[u].Center != got.Units[u].Center {
			t.Fatalf("unit %d center: want %v, got %v", u, want.Units[u].Center, got.Units[u].Center)
		}
	}
	if !reflect.DeepEqual(want.unitOf, got.unitOf) {
		t.Fatal("unitOf mapping differs")
	}
}

func TestMaintainerInitialMatchesBuild(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	full := Build(city.POIs, stays, params)
	m, err := NewMaintainerEnv(stage.Background(), city.POIs, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, full, m.Diagram())
	if got := m.Generation(); got != 1 {
		t.Fatalf("initial generation: want 1, got %d", got)
	}
	if d := m.Diagram(); d.Generation != 1 || d.ParentGeneration != 0 {
		t.Fatalf("lineage: want gen 1 parent 0, got gen %d parent %d", d.Generation, d.ParentGeneration)
	}
	if got := m.StayCount(); got != len(stays) {
		t.Fatalf("stay count: want %d, got %d", len(stays), got)
	}
}

// TestApplyDeltaBitIdenticalToFullBuild is the tentpole property: for
// every batch count, worker budget, and index backend, replaying the
// stay stream in contiguous batches produces — after every batch — a
// diagram bit-identical to a one-shot Build over the prefix.
func TestApplyDeltaBitIdenticalToFullBuild(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	for _, tc := range []struct {
		k, workers int
		kind       index.Kind
	}{
		{2, 1, index.KindGrid},
		{3, 4, index.KindGrid},
		{5, 1, index.KindKDTree},
		{4, 4, index.KindRTree},
	} {
		t.Run(fmt.Sprintf("k=%d/w=%d/%v", tc.k, tc.workers, tc.kind), func(t *testing.T) {
			env := envWith(tc.workers, tc.kind)
			batches := contiguousSplit(stays, tc.k)
			m, err := NewMaintainerEnv(env, city.POIs, batches[0], params)
			if err != nil {
				t.Fatal(err)
			}
			seen := len(batches[0])
			sawDirty := false
			for bi, batch := range batches[1:] {
				d, st, err := m.ApplyDelta(env, batch)
				if err != nil {
					t.Fatalf("batch %d: %v", bi+1, err)
				}
				seen += len(batch)
				if st.Generation != int64(bi+2) {
					t.Fatalf("batch %d: generation want %d, got %d", bi+1, bi+2, st.Generation)
				}
				if d.ParentGeneration != int64(bi+1) {
					t.Fatalf("batch %d: parent want %d, got %d", bi+1, bi+1, d.ParentGeneration)
				}
				if st.DirtyComponents > 0 {
					sawDirty = true
				}
				full, err := BuildEnv(env, city.POIs, stays[:seen], params)
				if err != nil {
					t.Fatal(err)
				}
				requireSameDiagram(t, full, d)
			}
			if m.StayCount() != len(stays) {
				t.Fatalf("stay count: want %d, got %d", len(stays), m.StayCount())
			}
			if !sawDirty {
				t.Fatal("no batch dirtied any component; workload too weak to exercise the delta path")
			}
		})
	}
}

// TestApplyDeltaAblationVariants replays under the Skip* ablations and
// without KeepSingletons — the assemble path has distinct branches for
// each.
func TestApplyDeltaAblationVariants(t *testing.T) {
	stays, city := maintWorkload(t)
	for _, tc := range []struct {
		name string
		mut  func(*Params)
	}{
		{"drop-singletons", func(p *Params) { p.KeepSingletons = false }},
		{"skip-purification", func(p *Params) { p.SkipPurification = true }},
		{"skip-merging", func(p *Params) { p.SkipMerging = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.KeepSingletons = true
			tc.mut(&params)
			env := envWith(2, index.KindGrid)
			batches := contiguousSplit(stays, 3)
			m, err := NewMaintainerEnv(env, city.POIs, batches[0], params)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches[1:] {
				if _, _, err := m.ApplyDelta(env, batch); err != nil {
					t.Fatal(err)
				}
			}
			full, err := BuildEnv(env, city.POIs, stays, params)
			if err != nil {
				t.Fatal(err)
			}
			requireSameDiagram(t, full, m.Diagram())
		})
	}
}

// TestApplyDeltaRollsBackOnPhase2Fault: the construction fault sites
// live in the phase-2 routine every construction path shares, so they
// fire inside ApplyDelta too. A batch failed that late must leave the
// maintainer on its previous generation, and retrying it must land
// exactly where a full build over the union does.
func TestApplyDeltaRollsBackOnPhase2Fault(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	env := envWith(2, index.KindGrid)
	batches := contiguousSplit(stays, 2)
	m, err := NewMaintainerEnv(env, city.POIs, batches[0], params)
	if err != nil {
		t.Fatal(err)
	}
	gen, before, count := m.Generation(), m.Diagram(), m.StayCount()

	in, err := fault.Parse("csd.merging:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(in)
	t.Cleanup(func() { fault.Activate(nil) })
	if _, _, err := m.ApplyDelta(env, batches[1]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ApplyDelta under csd.merging fault: err = %v, want injected fault", err)
	}
	if m.Generation() != gen || m.Diagram() != before || m.StayCount() != count {
		t.Fatalf("failed batch changed the maintainer: gen %d→%d, stays %d→%d, diagram replaced %v",
			gen, m.Generation(), count, m.StayCount(), m.Diagram() != before)
	}

	fault.Activate(nil)
	d, _, err := m.ApplyDelta(env, batches[1])
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	full, err := BuildEnv(env, city.POIs, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, full, d)
}

// TestApplyDeltaEmptyBatch: an empty batch must advance the generation
// (the stream protocol may deliver empty windows) without changing the
// diagram's content.
func TestApplyDeltaEmptyBatch(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	m, err := NewMaintainerEnv(stage.Background(), city.POIs, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Diagram()
	d, st, err := m.ApplyDelta(stage.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.BatchStays != 0 || st.AffectedPOIs != 0 || st.DirtyComponents != 0 {
		t.Fatalf("empty batch stats: %+v", st)
	}
	requireSameDiagram(t, before, d)
}

// TestSetGenerationContinuesLineage: a restarted ingester renumbers its
// seeded base past an existing on-disk lineage; subsequent deltas must
// continue from the renumbered generation with correct parents.
func TestSetGenerationContinuesLineage(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	batches := contiguousSplit(stays, 2)
	m, err := NewMaintainerEnv(stage.Background(), city.POIs, batches[0], params)
	if err != nil {
		t.Fatal(err)
	}
	m.SetGeneration(7)
	if m.Generation() != 7 || m.Diagram().Generation != 7 {
		t.Fatalf("after SetGeneration(7): gen %d, diagram gen %d", m.Generation(), m.Diagram().Generation)
	}
	d, st, err := m.ApplyDelta(stage.Background(), batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 8 || d.Generation != 8 || d.ParentGeneration != 7 {
		t.Fatalf("delta after renumber: stats gen %d, diagram %d/%d, want 8 with parent 7", st.Generation, d.Generation, d.ParentGeneration)
	}
}

// TestApplyDeltaStatsAccounting: every unit in the produced diagram is
// accounted as either dirty (recomputed) or reused, pre-merge.
func TestApplyDeltaStatsAccounting(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	params.SkipMerging = true // merge collapses units; skip it so counts line up
	batches := contiguousSplit(stays, 2)
	m, err := NewMaintainerEnv(stage.Background(), city.POIs, batches[0], params)
	if err != nil {
		t.Fatal(err)
	}
	d, st, err := m.ApplyDelta(stage.Background(), batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.AffectedPOIs == 0 {
		t.Fatal("second half of the stream affected no POI")
	}
	singletons := 0
	for _, u := range d.Units {
		if len(u.Members) == 1 {
			// KeepSingletons units come from leftovers, outside the
			// dirty/reused accounting. Multi-member singleton-free check
			// below still covers the bulk.
			singletons++
		}
	}
	if got := st.DirtyUnits + st.ReusedUnits; got > len(d.Units) || got < len(d.Units)-singletons {
		t.Fatalf("unit accounting: dirty %d + reused %d vs %d units (%d singletons)",
			st.DirtyUnits, st.ReusedUnits, len(d.Units), singletons)
	}
}

// TestMaintainerWorkersSwap: the retained POI strips do not depend on
// the worker budget they were built at. A maintainer built at two
// workers and fed its deltas at one gives the same bits as one built at
// one and fed at two, and both match a one-shot build over the union.
func TestMaintainerWorkersSwap(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	batches := contiguousSplit(stays, 4)
	run := func(build, apply int) *Diagram {
		t.Helper()
		m, err := NewMaintainerEnv(envWith(build, index.KindGrid), city.POIs, batches[0], params)
		if err != nil {
			t.Fatal(err)
		}
		var d *Diagram
		for _, b := range batches[1:] {
			if d, _, err = m.ApplyDelta(envWith(apply, index.KindGrid), b); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	full, err := BuildEnv(envWith(1, index.KindGrid), city.POIs, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, full, run(2, 1))
	requireSameDiagram(t, full, run(1, 2))
}

// TestApplyDeltaCanceledKeepsState: ApplyDelta under a canceled context
// returns ctx.Err() and leaves the retained state as it was, on the
// inline path and on the pool; the same batch then applies as if the
// canceled call had never happened.
func TestApplyDeltaCanceledKeepsState(t *testing.T) {
	stays, city := maintWorkload(t)
	params := DefaultParams()
	params.KeepSingletons = true
	batches := contiguousSplit(stays, 2)
	full, err := BuildEnv(stage.Background(), city.POIs, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			env := envWith(workers, index.KindGrid)
			m, err := NewMaintainerEnv(env, city.POIs, batches[0], params)
			if err != nil {
				t.Fatal(err)
			}
			gen, before, count := m.Generation(), m.Diagram(), m.StayCount()
			pop := append([]float64(nil), m.pop...)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			canceled := env
			canceled.Ctx = ctx
			if _, _, err := m.ApplyDelta(canceled, batches[1]); err != ctx.Err() {
				t.Fatalf("ApplyDelta under a canceled ctx: err = %v, want %v", err, ctx.Err())
			}
			if m.Generation() != gen || m.Diagram() != before || m.StayCount() != count {
				t.Fatalf("canceled batch changed the maintainer: gen %d→%d, stays %d→%d, diagram replaced %v",
					gen, m.Generation(), count, m.StayCount(), m.Diagram() != before)
			}
			for i := range pop {
				if math.Float64bits(m.pop[i]) != math.Float64bits(pop[i]) {
					t.Fatalf("canceled batch changed pop[%d]: %v → %v", i, pop[i], m.pop[i])
				}
			}
			d, _, err := m.ApplyDelta(env, batches[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSameDiagram(t, full, d)
		})
	}
}

// TestClusterCentroidMatchesCentroid: the centroid merge and finalize
// take per cluster has geo.Centroid's bits and allocates nothing.
func TestClusterCentroidMatchesCentroid(t *testing.T) {
	_, city := maintWorkload(t)
	d := &Diagram{POIs: city.POIs}
	clusters := [][]int{nil, {0}, {5, 3, 9}}
	var all []int
	for i := len(city.POIs) - 1; i >= 0; i -= 3 {
		all = append(all, i)
	}
	clusters = append(clusters, all)
	for _, cl := range clusters {
		pts := make([]geo.Point, len(cl))
		for k, i := range cl {
			pts[k] = city.POIs[i].Location
		}
		got, want := d.clusterCentroid(cl), geo.Centroid(pts)
		if math.Float64bits(got.Lon) != math.Float64bits(want.Lon) || math.Float64bits(got.Lat) != math.Float64bits(want.Lat) {
			t.Fatalf("clusterCentroid(%d members) = %v, geo.Centroid %v", len(cl), got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { d.clusterCentroid(all) }); allocs != 0 {
		t.Fatalf("clusterCentroid allocates %v times per call, want 0", allocs)
	}
}
