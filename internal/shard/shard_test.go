package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/stage"
	"csdm/internal/synth"
)

func testWorkload(t testing.TB) ([]poi.POI, []geo.Point) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 11
	cfg.NumPOIs = 300
	cfg.NumPassengers = 60
	cfg.Days = 3
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	stays := make([]geo.Point, 0, 2*len(w.Journeys))
	for _, j := range w.Journeys {
		stays = append(stays, j.Pickup, j.Dropoff)
	}
	return city.POIs, stays
}

func envWith(workers int, kind index.Kind) stage.Env {
	env := stage.Background()
	env.Trace = obs.New()
	env.Opt = exec.Options{Workers: workers, Index: kind}
	return env
}

func TestPlanPartitionAndHalo(t *testing.T) {
	extent := geo.Rect{Min: geo.Point{Lon: 121.0, Lat: 31.0}, Max: geo.Point{Lon: 121.5, Lat: 31.4}}
	plan, err := NewPlan(extent, 3, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tiles) != 12 {
		t.Fatalf("tiles = %d, want 12", len(plan.Tiles))
	}
	for _, tile := range plan.Tiles {
		if tile.ID != tile.Row*plan.Cols+tile.Col {
			t.Fatalf("tile %d at (%d,%d): bad row-major id", tile.ID, tile.Row, tile.Col)
		}
		if !tile.Halo.Contains(tile.Rect.Min) || !tile.Halo.Contains(tile.Rect.Max) {
			t.Fatalf("tile %d halo does not contain its rect", tile.ID)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		// Points inside and slightly outside the extent all get exactly
		// one owner, and in-extent points land in a tile whose halo
		// contains them.
		p := geo.Point{
			Lon: extent.Min.Lon + (rng.Float64()*1.2-0.1)*(extent.Max.Lon-extent.Min.Lon),
			Lat: extent.Min.Lat + (rng.Float64()*1.2-0.1)*(extent.Max.Lat-extent.Min.Lat),
		}
		o := plan.Owner(p)
		if o < 0 || o >= len(plan.Tiles) {
			t.Fatalf("Owner(%v) = %d out of range", p, o)
		}
		if extent.Contains(p) && !plan.Tiles[o].Halo.Contains(p) {
			t.Fatalf("in-extent point %v assigned to tile %d whose halo misses it", p, o)
		}
	}
	if _, err := NewPlan(extent, 0, 2, 100); err == nil {
		t.Fatal("NewPlan accepted a 0-row tiling")
	}
}

func TestParseTiling(t *testing.T) {
	r, c, err := ParseTiling("3x4")
	if err != nil || r != 3 || c != 4 {
		t.Fatalf("ParseTiling(3x4) = %d,%d,%v", r, c, err)
	}
	if _, _, err := ParseTiling("0x4"); err == nil {
		t.Fatal("ParseTiling accepted 0x4")
	}
	for _, bad := range []string{"", "3", "3x", "ax2", "3x3x3"} {
		if _, _, err := ParseTiling(bad); err == nil {
			t.Fatalf("ParseTiling accepted %q", bad)
		}
	}
}

func TestStayStoreRoundTrip(t *testing.T) {
	_, stays := testWorkload(t)
	path := filepath.Join(t.TempDir(), "stays.csdc")
	w, err := CreateStayStore(path, 64) // small chunks: force many
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(stays); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStayStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(stays) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(stays))
	}

	// A rect covering everything returns the full sequence, ids 0..n-1
	// ascending with exact coordinate bits.
	all := geo.BoundingRect(stays)
	ids, pp, err := s.LoadRect(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(stays) {
		t.Fatalf("full LoadRect returned %d of %d stays", len(ids), len(stays))
	}
	for k, id := range ids {
		if id != k {
			t.Fatalf("ids[%d] = %d, want ascending dense ids", k, id)
		}
		if pp.At(k) != stays[id] {
			t.Fatalf("stay %d: %v != %v (coordinate bits must round-trip)", id, pp.At(k), stays[id])
		}
	}

	// A sub-rectangle matches the in-memory reference filter exactly.
	sub := geo.Rect{Min: all.Min, Max: all.Center()}
	wantIDs, wantPP, _ := MemStays(stays).LoadRect(sub)
	ids, pp, err = s.LoadRect(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("sub-rect ids: got %d stays, want %d", len(ids), len(wantIDs))
	}
	for k := range ids {
		if pp.At(k) != wantPP.At(k) {
			t.Fatalf("sub-rect stay %d differs", ids[k])
		}
	}
}

func requireSame(t *testing.T, want, got *csd.Diagram) {
	t.Helper()
	if len(want.Pop) != len(got.Pop) {
		t.Fatalf("Pop length: want %d, got %d", len(want.Pop), len(got.Pop))
	}
	for i := range want.Pop {
		if want.Pop[i] != got.Pop[i] {
			t.Fatalf("Pop[%d]: want %v, got %v (bit mismatch)", i, want.Pop[i], got.Pop[i])
		}
	}
	if !reflect.DeepEqual(want.Units, got.Units) {
		t.Fatalf("units differ: want %d units, got %d", len(want.Units), len(got.Units))
	}
}

func TestShardedBuildMatchesMonolithic(t *testing.T) {
	pois, stays := testWorkload(t)
	params := csd.DefaultParams()
	params.KeepSingletons = true
	extent := geo.BoundingRect(poi.Locations(pois))

	for _, tiling := range [][2]int{{2, 2}, {3, 3}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%dx%d/w%d", tiling[0], tiling[1], workers), func(t *testing.T) {
				env := envWith(workers, index.KindGrid)
				ref, err := csd.BuildEnv(env, pois, stays, params)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := NewPlan(extent, tiling[0], tiling[1], params.R3Sigma)
				if err != nil {
					t.Fatal(err)
				}
				d, st, err := Build(env, pois, MemStays(stays), Config{Plan: plan, Params: params, ShardWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSame(t, ref, d)
				if st.TotalStays != len(stays) || st.MaxShardStays >= st.TotalStays {
					t.Fatalf("stats = %+v: expected every shard to load a strict subset", st)
				}

				// Same again through the on-disk store: the out-of-core
				// path must not change a single bit.
				path := filepath.Join(t.TempDir(), "stays.csdc")
				w, err := CreateStayStore(path, 128)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(stays); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				s, err := OpenStayStore(path)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				d2, _, err := Build(env, pois, s, Config{Plan: plan, Params: params, ShardWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSame(t, ref, d2)
			})
		}
	}
}

// TestShardedBuildResumes injects a fault into the third shard stage,
// watches the build fail, then re-runs against the same checkpoint
// directory: the completed shards resume instead of rebuilding and the
// final diagram is still bit-identical to the monolithic reference.
func TestShardedBuildResumes(t *testing.T) {
	pois, stays := testWorkload(t)
	params := csd.DefaultParams()
	params.KeepSingletons = true
	extent := geo.BoundingRect(poi.Locations(pois))
	plan, err := NewPlan(extent, 2, 2, params.R3Sigma)
	if err != nil {
		t.Fatal(err)
	}

	env := envWith(1, index.KindGrid)
	ref, err := csd.BuildEnv(env, pois, stays, params)
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := ckpt.New(t.TempDir(), env.Trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Plan: plan, Params: params, ShardWorkers: 1, Ckpt: mgr}

	in, err := fault.Parse("shard.pop:error:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(in)
	_, _, err = Build(env, pois, MemStays(stays), cfg)
	fault.Activate(nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted build err = %v, want injected fault", err)
	}

	d, st, err := Build(env, pois, MemStays(stays), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedShards != 2 {
		t.Fatalf("ResumedShards = %d, want 2 (the shards that completed before the fault)", st.ResumedShards)
	}
	requireSame(t, ref, d)

	// A third run resumes everything.
	d2, st2, err := Build(env, pois, MemStays(stays), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ResumedShards != st2.Shards {
		t.Fatalf("full resume: ResumedShards = %d, want %d", st2.ResumedShards, st2.Shards)
	}
	requireSame(t, ref, d2)
}

// TestShardedBuildRejectsStaleCheckpoint grows the dataset between
// runs: checkpoints fingerprint the total stay count, so the resumed
// values must be discarded and rebuilt, not silently reused.
func TestShardedBuildRejectsStaleCheckpoint(t *testing.T) {
	pois, stays := testWorkload(t)
	params := csd.DefaultParams()
	params.KeepSingletons = true
	extent := geo.BoundingRect(poi.Locations(pois))
	plan, err := NewPlan(extent, 2, 2, params.R3Sigma)
	if err != nil {
		t.Fatal(err)
	}
	env := envWith(1, index.KindGrid)
	mgr, err := ckpt.New(t.TempDir(), env.Trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Plan: plan, Params: params, ShardWorkers: 1, Ckpt: mgr}

	if _, _, err := Build(env, pois, MemStays(stays[:len(stays)/2]), cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := csd.BuildEnv(env, pois, stays, params)
	if err != nil {
		t.Fatal(err)
	}
	d, st, err := Build(env, pois, MemStays(stays), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedShards != 0 {
		t.Fatalf("ResumedShards = %d after dataset grew, want 0", st.ResumedShards)
	}
	requireSame(t, ref, d)
}

// FuzzDecodeShardPop feeds arbitrary bytes to the shard popularity
// checkpoint decoder. It must never panic, and a checkpoint it accepts
// must belong to the tile's owned POI set and stay count and survive an
// encode/decode round trip unchanged.
func FuzzDecodeShardPop(f *testing.F) {
	own := []int{2, 5, 7}
	const total = 100
	valid, err := json.Marshal(shardPop{POIs: own, Pop: []float64{0.5, 0, 1e-300}, Stays: 40, Total: total})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{"pois":[2,5,7],"pop":[1,2,3],"stays":40,"total_stays":99}`,
		`{"pois":[2,5,8],"pop":[1,2,3],"stays":40,"total_stays":100}`,
		`{"pois":[2,5,7],"pop":[1,2],"stays":40,"total_stays":100}`,
		`{"pois":[2,5,7],"pop":[1,2,3e999],"stays":40,"total_stays":100}`,
		string(valid[:len(valid)/2]), `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeShardPop(bytes.NewReader(data), 3, own, total)
		if err != nil {
			return
		}
		if sp.Total != total || len(sp.Pop) != len(own) || !equalInts(sp.POIs, own) {
			t.Fatalf("accepted a checkpoint for another plan or dataset: %+v", sp)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(sp); err != nil {
			t.Fatal(err)
		}
		again, err := decodeShardPop(&buf, 3, own, total)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("round trip changed the checkpoint: %+v -> %+v", sp, again)
		}
	})
}
