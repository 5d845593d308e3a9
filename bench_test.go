package csdm

// Pipeline benchmarks on the bench city: CSD-PM extraction alone and
// all six approaches' extraction at a pinned worker budget, the cold
// end-to-end pipeline, and the spatial index race. The paper's tables
// and figures are regenerated by cmd/experiments and their shapes
// asserted by internal/experiments' tests; the shared environment here
// also feeds floors_test.go, delta_test.go and shard_equiv_test.go.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"csdm/internal/core"
	"csdm/internal/experiments"
	"csdm/internal/index"
	"csdm/internal/poi"
	"csdm/internal/synth"
)

// benchScale keeps every benchmark in the seconds range while staying
// large enough that thin flows (hospital visits) still clear their
// drill-down support thresholds.
func benchScale() experiments.Scale {
	return experiments.Scale{Seed: 1, NumPOIs: 3000, NumPassengers: 600, Days: 14}
}

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func sharedEnv() *experiments.Env {
	benchOnce.Do(func() {
		benchEnv = experiments.Setup(benchScale())
	})
	return benchEnv
}

// benchParams scales σ to the benchmark workload.
func benchParams() MiningParams {
	p := experiments.MiningParams()
	p.Sigma = 20
	return p
}

// BenchmarkIndexComparison races the three spatial indexes on the
// workload's range query (R3σ around stay points over the POI set).
func BenchmarkIndexComparison(b *testing.B) {
	env := sharedEnv()
	pts := poi.Locations(env.City.POIs)
	stays := core.Stays(env.Pipeline.Journeys())
	for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
		b.Run(kind.String(), func(b *testing.B) {
			idx := index.New(kind, pts, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Within(stays[i%len(stays)], 100)
			}
		})
	}
}

// BenchmarkMine times the extraction stage alone (the recognition
// artifacts are prebuilt), with no trace attached. The sub-benchmarks
// pin the worker budget along the scaling curve {1, 4, NumCPU}:
// workers-1 is the sequential baseline and the higher counts measure
// the execution layer's speedup on the same (bit-identical) mining
// output; workers-4 is the curve point TestParallelEfficiencyFloor
// checks.
func BenchmarkMine(b *testing.B) {
	set := map[int]bool{1: true, 4: true, runtime.NumCPU(): true}
	counts := make([]int, 0, len(set))
	for n := range set {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), mineBench(workers))
	}
}

// mineBench builds the bench city at a pinned worker budget and
// returns a benchmark of CSD-PM extraction over its prebuilt
// recognition database, so only extraction is measured.
func mineBench(workers int) func(*testing.B) {
	params := benchParams()
	return extractBench(workers, []core.RecognizerKind{core.RecCSD},
		func(ctx context.Context, p *core.Pipeline) (int, error) {
			ps, err := p.MineCtx(ctx, core.CSDPM, params)
			return len(ps), err
		})
}

// BenchmarkMineAll times MineAllCtx with both recognition databases
// prebuilt: the six approaches' extraction, fanned out over the worker
// pool by stage.RunEach. workers-1 runs the approaches one after
// another; workers-2 measures what the approach-level fan-out pays on
// two cores.
func BenchmarkMineAll(b *testing.B) {
	params := benchParams()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), extractBench(workers,
			[]core.RecognizerKind{core.RecCSD, core.RecROI},
			func(ctx context.Context, p *core.Pipeline) (int, error) {
				res, err := p.MineAllCtx(ctx, params)
				if err != nil {
					return 0, err
				}
				n := 0
				for _, r := range res {
					if r.Err != nil {
						return 0, fmt.Errorf("%v: %w", r.Approach, r.Err)
					}
					n += len(r.Patterns)
				}
				return n, nil
			}))
	}
}

// extractBench builds the bench city at a pinned worker budget,
// prebuilds the recognition databases of kinds, and returns a
// benchmark of mine, which reports the patterns it found, so only
// extraction is measured.
func extractBench(workers int, kinds []core.RecognizerKind, mine func(context.Context, *core.Pipeline) (int, error)) func(*testing.B) {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	env := experiments.SetupConfig(benchScale(), cfg)
	return func(b *testing.B) {
		ctx := context.Background()
		for _, kind := range kinds {
			if _, err := env.Pipeline.DatabaseCtx(ctx, kind); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var n int
		for i := 0; i < b.N; i++ {
			var err error
			if n, err = mine(ctx, env.Pipeline); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "patterns")
	}
}

// BenchmarkEndToEndCSDPM times the full pipeline — diagram, recognition,
// extraction — from cold on a fresh pipeline.
func BenchmarkEndToEndCSDPM(b *testing.B) {
	scale := benchScale()
	cfg := synth.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.NumPOIs = scale.NumPOIs
	cfg.NumPassengers = scale.NumPassengers
	cfg.Days = scale.Days
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	params := benchParams()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		ps, err := NewMiner(city.POIs, w.Journeys, DefaultConfig()).Mine(context.Background(), CSDPM, params)
		if err != nil {
			b.Fatal(err)
		}
		n = len(ps)
	}
	b.ReportMetric(float64(n), "patterns")
}
