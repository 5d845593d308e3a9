package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// haloSlackMeters widens every shard's stay-load window beyond the
// geometric R3σ halo. The halo math is exact in the spherical model,
// but the stays' membership test is floating-point Haversine — a stay
// at distance radius-minus-epsilon from an owned POI could in
// principle round a ULP past the exact halo edge. One meter of slack
// dwarfs any such rounding (which is sub-micrometer at city scales)
// while loading a negligible sliver of extra points; membership in a
// POI's kernel support is still decided by exact Haversine against the
// radius, so the slack changes which stays are *loaded*, never which
// are *counted*.
const haloSlackMeters = 1.0

// Config parameterizes a sharded build.
type Config struct {
	// Plan is the tiling (required).
	Plan *Plan
	// Params are the CSD construction parameters.
	Params csd.Params
	// ShardWorkers bounds the shard fan-out (0 = NumCPU). Within a
	// shard the popularity loop is sequential — the shard grid is the
	// parallel axis — so peak stay memory is capped at roughly
	// ShardWorkers × the largest halo's stay count.
	ShardWorkers int
	// Ckpt, when set, checkpoints each shard's popularity vector so an
	// interrupted build resumes at shard granularity.
	Ckpt *ckpt.Manager
}

// Stats reports what one sharded build did.
type Stats struct {
	// Shards is the plan's tile count; ActiveShards own at least one
	// POI.
	Shards       int
	ActiveShards int
	// ResumedShards counts shards whose popularity came from a
	// checkpoint instead of being rebuilt.
	ResumedShards int
	// TotalStays is the source's stay count; LoadedStays sums the halo
	// loads across shards (> TotalStays when halos overlap).
	TotalStays  int
	LoadedStays int
	// MaxShardStays is the largest single shard's halo load — the
	// build's resident-stay high-water mark per worker, and the
	// out-of-core proxy behind the repository benchmark's
	// shard.resident_frac and the residency ceiling in the root
	// package's sharded-equivalence test.
	MaxShardStays int
	// MaxShardPOIs is the largest owned POI set.
	MaxShardPOIs int
}

// shardPop is one shard's checkpoint artifact: the owned POI ids and
// their popularity sums, plus enough input fingerprint (owned set,
// total stay count) for a resumed checkpoint to be rejected when the
// plan or the dataset changed. encoding/json round-trips float64
// losslessly (shortest-representation encoding), so resuming preserves
// popularity bits.
type shardPop struct {
	POIs  []int     `json:"pois"`
	Pop   []float64 `json:"pop"`
	Stays int       `json:"stays"`
	Total int       `json:"total_stays"`
}

// Build runs the sharded CSD construction: per-tile popularity over
// halo-loaded stays (each shard a checkpointable stage, fanned out
// under exec.ParallelForSlots), scattered into one global popularity
// vector, then the global phase-2 assembly via csd.BuildFromPopularity.
// The diagram is bit-identical to csd.BuildEnv over the same POIs and
// the source's full stay sequence, for any tiling, worker count and
// index backend — see the package comment and DESIGN.md §5j for why.
func Build(env stage.Env, pois []poi.POI, src StaySource, cfg Config) (*csd.Diagram, Stats, error) {
	var st Stats
	plan := cfg.Plan
	if plan == nil || len(plan.Tiles) == 0 {
		return nil, st, fmt.Errorf("shard: Build needs a plan with at least one tile")
	}
	st.Shards = len(plan.Tiles)
	st.TotalStays = src.Len()
	root := env.StartSpan("shard.build")
	defer root.End()
	tr := env.Trace

	// Assign every POI to its owning tile. One ascending scan keeps
	// each owned list ascending, which keeps the per-shard popularity
	// loop visiting POIs in global id order.
	owned := make([][]int, len(plan.Tiles))
	for i := range pois {
		t := plan.Owner(pois[i].Location)
		owned[t] = append(owned[t], i)
	}

	g := stage.NewGraph(func() stage.Config {
		return stage.Config{Trace: env.Trace, Opt: env.Opt, Store: cfg.Ckpt}
	})
	kernel := geo.NewGaussianKernel(cfg.Params.R3Sigma)
	totalStays := st.TotalStays

	cells := make([]*stage.Cell[shardPop], len(plan.Tiles))
	for i := range plan.Tiles {
		tile := plan.Tiles[i]
		own := owned[tile.ID]
		// Re-anchor the halo on the owned POIs themselves: ownership is
		// index arithmetic, so a boundary POI can sit a ULP outside its
		// tile's descriptive rectangle. Extending the rect before the
		// expansion restores the guarantee that every owned POI's full
		// R3σ support is inside the load window.
		load := tile.Rect
		locs := make([]geo.Point, len(own))
		for k, pi := range own {
			locs[k] = pois[pi].Location
			load = load.Extend(locs[k])
		}
		load = load.ExpandMeters(plan.HaloMeters + haloSlackMeters)
		cells[tile.ID] = stage.Add(g, stage.Decl{
			Name:     fmt.Sprintf("shard.pop.%dx%d.%d", plan.Rows, plan.Cols, tile.ID),
			Site:     "shard.pop",
			Artifact: "shard-pop",
			File:     fmt.Sprintf("shard-pop.%dx%d.%d.json", plan.Rows, plan.Cols, tile.ID),
		}, func(senv stage.Env) (shardPop, error) {
			sp := shardPop{POIs: own, Pop: make([]float64, len(own)), Total: totalStays}
			if len(own) == 0 || totalStays == 0 {
				return sp, nil
			}
			_, pp, err := src.LoadRect(load)
			if err != nil {
				return sp, err
			}
			sp.Stays = pp.Len()
			opt := senv.Opt
			opt.Workers = 1 // the shard grid is the parallel axis
			return sp, csd.FoldPopularity(senv.Ctx, opt, kernel, locs, pp, sp.Pop, nil)
		}).Checkpoint(stage.Codec[shardPop]{
			Encode: func(w io.Writer, sp shardPop) error { return json.NewEncoder(w).Encode(sp) },
			Decode: func(r io.Reader) (shardPop, error) { return decodeShardPop(r, tile.ID, own, totalStays) },
		})
	}

	sp := root.Start("popularity")
	pop := make([]float64, len(pois))
	var mu sync.Mutex
	exec.Note(tr, len(plan.Tiles), exec.Workers(cfg.ShardWorkers))
	err := exec.ParallelForSlots(env.Ctx, cfg.ShardWorkers, len(plan.Tiles), func(_, t int) error {
		res, err := cells[t].Get(env.Ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		// Ownership is a partition, so each pop[pi] is written exactly
		// once across all shards.
		for k, pi := range res.POIs {
			pop[pi] = res.Pop[k]
		}
		st.LoadedStays += res.Stays
		if res.Stays > st.MaxShardStays {
			st.MaxShardStays = res.Stays
		}
		if len(res.POIs) > 0 {
			st.ActiveShards++
		}
		if len(res.POIs) > st.MaxShardPOIs {
			st.MaxShardPOIs = len(res.POIs)
		}
		return nil
	})
	sp.End()
	if err != nil {
		return nil, st, err
	}
	for t := range cells {
		if cells[t].Origin() == stage.OriginResumed {
			st.ResumedShards++
		}
	}
	tr.Add("shard.shards", int64(st.Shards))
	tr.Add("shard.shards.resumed", int64(st.ResumedShards))
	tr.SetGauge("shard.stays.max_resident", float64(st.MaxShardStays))

	d, err := csd.BuildFromPopularity(env, pois, pop, cfg.Params)
	if err != nil {
		return nil, st, err
	}
	return d, st, nil
}

// decodeShardPop reads tile's popularity checkpoint and refuses it
// unless it was written for the same owned POI set and stay count.
func decodeShardPop(r io.Reader, tile int, own []int, totalStays int) (shardPop, error) {
	var sp shardPop
	if err := json.NewDecoder(r).Decode(&sp); err != nil {
		return sp, err
	}
	if sp.Total != totalStays || len(sp.Pop) != len(own) || !equalInts(sp.POIs, own) {
		return sp, fmt.Errorf("shard: tile %d checkpoint does not match the current plan/dataset", tile)
	}
	return sp, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
