package csd

// Per-stage benchmarks for the diagram construction pipeline. Each
// stage is measured white-box on the same synthetic workload as the
// repository-level BenchmarkMine, with its inputs prebuilt, so a
// regression localizes to one stage instead of hiding inside the
// end-to-end number. All report allocations: the spatial-query scratch
// buffers and the purifier's cached kernel weights exist precisely to
// keep these lines flat.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/synth"
)

// stageFixture is the shared stage-benchmark state: the synthetic
// workload plus every intermediate input, built once. Sequential
// (Workers: 1) so the per-op numbers measure the algorithms, not the
// pool.
type stageFixtureT struct {
	pois     []poi.POI
	stays    []geo.Point
	d        *Diagram
	cache    components // every component grown and purified
	all      []int      // every component id
	leftover []int
	purified [][]int
}

var (
	stageOnce sync.Once
	stageFix  stageFixtureT
)

func stageFixture(b *testing.B) *stageFixtureT {
	stageOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Seed = 1
		cfg.NumPOIs = 3000
		cfg.NumPassengers = 600
		cfg.Days = 14
		city := synth.NewCity(cfg)
		w := city.GenerateWorkload()
		stageFix.pois = city.POIs
		stageFix.stays = make([]geo.Point, 0, 2*len(w.Journeys))
		for _, j := range w.Journeys {
			stageFix.stays = append(stageFix.stays, j.Pickup, j.Dropoff)
		}
		params := DefaultParams()
		d := &Diagram{Params: params, POIs: stageFix.pois, kernel: newKernelFor(params)}
		ctx := context.Background()
		pop, err := popularity(ctx, d.POIs, stageFix.stays, d.kernel, exec.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		d.Pop = pop
		stageFix.d = d
		opt := exec.Options{Workers: 1}
		if stageFix.all, err = stageFix.cache.grow(ctx, d, opt); err != nil {
			panic(err)
		}
		if err = stageFix.cache.purify(ctx, d, nil, opt, stageFix.all); err != nil {
			panic(err)
		}
		stageFix.purified, stageFix.leftover = stageFix.cache.units(false)
	})
	return &stageFix
}

// BenchmarkPopularity measures the build's popularity stage: pack the
// stays, split the POIs into strips with their grids, and fold every
// stay into zero sums, at one and two workers.
func BenchmarkPopularity(b *testing.B) {
	fix := stageFixture(b)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			opt := exec.Options{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := popularity(ctx, fix.pois, fix.stays, fix.d.kernel, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFoldBatch measures one ingest delta's popularity as
// ApplyDelta runs it: an 85-stay batch, the bench city's last stays,
// folded through the retained POI strips into a copy of the sums over
// every earlier stay, with touched marked.
func BenchmarkFoldBatch(b *testing.B) {
	fix := stageFixture(b)
	ctx := context.Background()
	const batchStays = 85
	cut := len(fix.stays) - batchStays
	pix := newPopIndex(fix.d.kernel, poi.Locations(fix.pois))
	seed := make([]float64, len(fix.pois))
	if err := pix.fold(ctx, 1, geo.Pack(fix.stays[:cut]), seed, nil); err != nil {
		b.Fatal(err)
	}
	batch := fix.stays[cut:]
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := append([]float64(nil), seed...)
				touched := make([]bool, len(pop))
				if err := pix.fold(ctx, workers, geo.Pack(batch), pop, touched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClustering measures Algorithm 1 as construction runs it:
// the ε_p component decomposition plus one growth run per component.
func BenchmarkClustering(b *testing.B) {
	fix := stageFixture(b)
	ctx := context.Background()
	opt := exec.Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var nc int
	for i := 0; i < b.N; i++ {
		var cache components
		if _, err := cache.grow(ctx, fix.d, opt); err != nil {
			b.Fatal(err)
		}
		nc = 0
		for _, cs := range cache.comps {
			nc += len(cs.clusters)
		}
	}
	b.ReportMetric(float64(nc), "clusters")
}

func BenchmarkPurify(b *testing.B) {
	fix := stageFixture(b)
	ctx := context.Background()
	opt := exec.Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var nu int
	for i := 0; i < b.N; i++ {
		if err := fix.cache.purify(ctx, fix.d, nil, opt, fix.all); err != nil {
			b.Fatal(err)
		}
		nu = 0
		for _, cs := range fix.cache.comps {
			for _, us := range cs.purified {
				nu += len(us)
			}
		}
	}
	b.ReportMetric(float64(nu), "units")
}

func BenchmarkMerge(b *testing.B) {
	fix := stageFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var nm int
	for i := 0; i < b.N; i++ {
		merged, _, err := fix.d.merge(ctx, fix.purified, fix.leftover, index.KindGrid)
		if err != nil {
			b.Fatal(err)
		}
		nm = len(merged)
	}
	b.ReportMetric(float64(nm), "merged-units")
}
