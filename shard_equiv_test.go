package csdm

// Sharded-vs-monolithic equivalence sweep: the geo-sharded out-of-core
// build (internal/shard) must reproduce the monolithic diagram bit for
// bit — popularity vector, unit set, and the patterns mined over it —
// for every tiling, index backend and worker count, whether the stays
// come from memory or from the on-disk columnar store. This is the
// property that makes -shards a pure execution strategy rather than an
// approximation knob; DESIGN.md §5j derives why it holds.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/shard"
	"csdm/internal/stage"
)

// maxResidentFraction caps the largest shard's halo load as a share of
// the stay corpus. Both counts are deterministic: the bench city loads
// 0.49 of its stays into the largest shard at 2x2 and 0.25 at 4x4.
const maxResidentFraction = 0.75

func TestShardedBuildEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence sweep skipped in -short")
	}
	env := sharedEnv()
	pois := env.City.POIs
	stays := env.Pipeline.StayPoints()
	params := core.DefaultConfig().CSD
	extent := geo.BoundingRect(poi.Locations(pois))

	ref := csd.Build(pois, stays, params)

	// One on-disk columnar store shared by the out-of-core combos. A
	// small chunk cap forces many chunks, so LoadRect's chunk skipping
	// is actually exercised.
	storePath := filepath.Join(t.TempDir(), "stays.csdstay")
	w, err := shard.CreateStayStore(storePath, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(stays); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := shard.OpenStayStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	backends := []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree}
	for _, tiling := range [][2]int{{2, 2}, {4, 4}} {
		plan, err := shard.NewPlan(extent, tiling[0], tiling[1], params.R3Sigma)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range backends {
			for _, workers := range []int{1, 4} {
				// Alternate the stay source so both the in-memory
				// adapter and the on-disk store run against every
				// backend.
				var src shard.StaySource = shard.MemStays(stays)
				srcName := "mem"
				if workers == 4 {
					src = store
					srcName = "store"
				}
				name := fmt.Sprintf("%dx%d/%v/workers-%d/%s", tiling[0], tiling[1], kind, workers, srcName)
				t.Run(name, func(t *testing.T) {
					ctx := context.Background()
					senv := stage.Env{Ctx: ctx, Run: ctx, Opt: exec.Options{Workers: workers, Index: kind}}
					d, st, err := shard.Build(senv, pois, src, shard.Config{
						Plan: plan, Params: params, ShardWorkers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					// Popularity is bit-identical across every backend
					// and tiling, so it is checked against the single
					// default-built reference.
					for i := range ref.Pop {
						if d.Pop[i] != ref.Pop[i] {
							t.Fatalf("popularity diverges at POI %d: sharded %v, monolithic %v", i, d.Pop[i], ref.Pop[i])
						}
					}
					// Phase-2 unit ordering legitimately depends on the
					// index backend's traversal order, so units compare
					// against a monolithic build under the same env.
					refEnv, err := csd.BuildEnv(senv, pois, stays, params)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(d.Units, refEnv.Units) {
						t.Fatalf("unit sets diverge: sharded %d units, monolithic %d", len(d.Units), len(refEnv.Units))
					}
					if frac := float64(st.MaxShardStays) / float64(st.TotalStays); frac > maxResidentFraction {
						t.Fatalf("max resident %d of %d total stays (%.2f) > %.2f", st.MaxShardStays, st.TotalStays, frac, maxResidentFraction)
					}
				})
			}
		}
	}

	// The end-to-end property: CSD-PM mining over a sharded diagram
	// yields the exact monolithic pattern set.
	approach, err := core.ApproachByName("CSD-PM")
	if err != nil {
		t.Fatal(err)
	}
	refPatterns := mineOver(t, env.City.POIs, env.Workload.Journeys, ref, approach)
	if len(refPatterns) == 0 {
		t.Fatal("monolithic reference mined zero patterns; the comparison below would be vacuous")
	}
	plan, err := shard.NewPlan(extent, 4, 4, params.R3Sigma)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	senv := stage.Env{Ctx: ctx, Run: ctx, Opt: exec.Options{Workers: 4, Index: index.KindGrid}}
	sharded, _, err := shard.Build(senv, pois, store, shard.Config{Plan: plan, Params: params, ShardWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := mineOver(t, env.City.POIs, env.Workload.Journeys, sharded, approach)
	if !reflect.DeepEqual(got, refPatterns) {
		t.Fatalf("CSD-PM patterns diverge: sharded mined %d, monolithic %d", len(got), len(refPatterns))
	}
	t.Logf("sharded diagram reproduces all %d CSD-PM patterns", len(refPatterns))
}

// mineOver mines one approach on a fresh pipeline seeded with the
// given diagram.
func mineOver(t *testing.T, pois []POI, journeys []Journey, d *csd.Diagram, a core.Approach) []Pattern {
	t.Helper()
	pipe := core.NewPipeline(pois, journeys, core.DefaultConfig())
	pipe.UseDiagram(d)
	ps, err := pipe.MineCtx(context.Background(), a, benchParams())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}
