package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/shard"
)

// The country build's tiling.
const shardRows, shardCols = 3, 3

// countrySharded is the out-of-core build at country extent: several
// cities' stays are spilled to a .csdstay store and the diagram is
// built shard by shard. Its operation is one spill plus one sharded
// build.
func countrySharded(r *runner) error {
	params := csdParams()
	var (
		c    corpus
		plan *shard.Plan
	)
	if err := r.setup(func() error {
		c = countryCorpus(r.o.seed, r.o.scale)
		var err error
		plan, err = shard.NewPlan(geo.BoundingRect(poi.Locations(c.pois)), shardRows, shardCols, params.R3Sigma)
		return err
	}); err != nil {
		return err
	}
	r.rep.Digests["corpus"] = c.digest()
	store := filepath.Join(r.o.workDir, "stays.csdstay")

	var (
		want         string
		spill, build []float64
		stats        shard.Stats
	)
	once := func(ph *phase) error {
		runtime.GC() // as in mine-city: every build starts from a collected heap
		tr := ph.obsTrace()
		root := ph.tr.start(0, "country.build")
		t0 := time.Now()
		sp := ph.tr.start(root.id, "shard.StoreWriter")
		src, err := spillStays(store, c.stays)
		sp.end()
		t1 := time.Now()
		var d *csd.Diagram
		if err == nil {
			sp = ph.tr.start(root.id, "shard.Build")
			d, stats, err = shard.Build(env(r.ctx, tr), c.pois, src, shard.Config{Plan: plan, Params: params, ShardWorkers: workers})
			sp.end()
		}
		t2 := time.Now()
		root.end()
		if src != nil {
			src.Close()
			sp.graft(tr, 0)
		}
		os.Remove(store) // each spill starts from a fresh file
		r.rep.Attempted++
		if err != nil {
			r.rep.Failed++
			return err
		}
		ph.record(t2.Sub(t0))
		spill = append(spill, ms(t1.Sub(t0)))
		build = append(build, ms(t2.Sub(t1)))
		if tr != nil {
			ph.layers = append(ph.layers, flatten(tr))
		}
		p, err := payload(d)
		if err != nil {
			return err
		}
		if want == "" {
			want = sha(p)
		} else if sha(p) != want {
			r.rep.fail("sharded build %d: payload %s, first build %s", r.rep.Attempted, sha(p), want)
		}
		return nil
	}
	// The first build warms caches and the heap; it is discarded.
	if err := once(&phase{}); err != nil {
		return err
	}
	un, tr, err := r.measure(func(ph *phase) error {
		spill, build = nil, nil
		for len(ph.ops) == 0 || !ph.over() {
			if err := once(ph); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.set("shard_build_s", "s", median(un.ops)/1000, len(un.ops))
	n := len(spill)
	r.rep.set("shard.spill_ms", "ms", median(spill), n)
	r.rep.set("shard.build_ms", "ms", median(build), n)
	r.rep.set("shard.halo_overhead", "ratio", float64(stats.LoadedStays)/float64(stats.TotalStays), 1)
	r.rep.set("shard.resident_frac", "ratio", float64(stats.MaxShardStays)/float64(stats.TotalStays), 1)
	r.rep.Digests["diagram_payload_sha256"] = want
	if tr != nil {
		r.indexMetrics(c.pois, c.stays)
	}

	// After timing: the sharded diagram must be byte-equal to the
	// monolithic build's.
	mono, err := csd.BuildEnv(env(r.ctx, nil), c.pois, c.stays, params)
	if err != nil {
		return err
	}
	p, err := payload(mono)
	if err != nil {
		return err
	}
	if sha(p) != want {
		r.rep.fail("sharded payload %s differs from the monolithic build's %s", want, sha(p))
	}
	return nil
}

// spillStays writes stays to a fresh .csdstay store at path and opens
// it for reading.
func spillStays(path string, stays []geo.Point) (*shard.StayStore, error) {
	w, err := shard.CreateStayStore(path, 0)
	if err != nil {
		return nil, err
	}
	if err := w.Append(stays); err != nil {
		w.Close()
		return nil, fmt.Errorf("spill stays: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("spill stays: %w", err)
	}
	return shard.OpenStayStore(path)
}
