//go:build !race

package csdm

// Same-run performance floors. Each test measures two configurations
// of one workload in the same process and checks their ratio, or
// checks a deterministic allocation count, so the verdict does not
// depend on which machine runs it. Absolute timings are compared by
// the paired parent-vs-change runs of the repository benchmark
// (bench/, BENCHMARK.json), not here. The race detector distorts
// both time and allocations, hence the build tag.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/stage"
)

const (
	// minDeltaSpeedup is the least full-rebuild/ApplyDelta speedup a
	// 1% new-stay batch must show on the bench city: below it the
	// maintainer is no longer incremental in any useful sense.
	minDeltaSpeedup = 5.0
	// minParallelEfficiency is the least workers-4 speedup over
	// workers 1 for CSD-PM extraction when four cores exist.
	minParallelEfficiency = 2.0
	// mineAllocsBaseline is the workers-1 allocs/op of CSD-PM
	// extraction on the bench city, measured once density clustering
	// queried each neighborhood on visit and the closure matched into
	// scratch (it was 1 290 902 before). Allocation counts are
	// deterministic for a pinned worker budget, so unlike ns/op the
	// number holds on any machine.
	mineAllocsBaseline = 108_794
	// mineBytesBaseline is the workers-1 bytes/op of the same
	// extraction, measured alongside mineAllocsBaseline (~492 MB
	// before).
	mineBytesBaseline = 68_144_304
	// mineAllocTolerance is the relative growth allowed over
	// mineAllocsBaseline and mineBytesBaseline.
	mineAllocTolerance = 0.10
)

// TestDeltaSpeedupFloor times one full csd.Build of the bench city
// against one ApplyDelta of its last 1% of stays on a maintainer seeded
// with the rest, best of three each.
func TestDeltaSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short")
	}
	const reps = 3
	env := sharedEnv()
	stays := env.Pipeline.StayPoints()
	params := core.DefaultConfig().CSD
	batch := len(stays) / 100
	base, delta := stays[:len(stays)-batch], stays[len(stays)-batch:]

	full, incr := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		csd.Build(env.City.POIs, stays, params)
		full = min(full, time.Since(start))

		m, err := csd.NewMaintainerEnv(stage.Background(), env.City.POIs, base, params)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		if _, _, err := m.ApplyDelta(stage.Background(), delta); err != nil {
			t.Fatal(err)
		}
		incr = min(incr, time.Since(start))
	}
	speedup := float64(full) / float64(incr)
	t.Logf("full %v, delta of %d stays %v: %.1fx", full, batch, incr, speedup)
	if speedup < minDeltaSpeedup {
		t.Fatalf("delta speedup %.1fx < %.1fx floor", speedup, minDeltaSpeedup)
	}
}

// TestParallelEfficiencyFloor checks that CSD-PM extraction at workers
// 4 runs at least minParallelEfficiency times faster than at workers 1.
// With fewer than four cores the ratio measures the machine, not the
// code, so the test skips.
func TestParallelEfficiencyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short")
	}
	if cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cores < 4 {
		t.Skipf("efficiency floor needs 4 cores, have %d", cores)
	}
	w1 := testing.Benchmark(mineBench(1))
	w4 := testing.Benchmark(mineBench(4))
	eff := float64(w1.NsPerOp()) / float64(w4.NsPerOp())
	t.Logf("workers 1: %d ns/op, workers 4: %d ns/op, efficiency %.2fx", w1.NsPerOp(), w4.NsPerOp(), eff)
	if eff < minParallelEfficiency {
		t.Fatalf("parallel efficiency %.2fx < %.2fx floor", eff, minParallelEfficiency)
	}
}

// TestMineAllocCeiling holds workers-1 extraction to the committed
// allocation count plus mineAllocTolerance.
func TestMineAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling skipped in -short")
	}
	r := testing.Benchmark(mineBench(1))
	const ceiling = mineAllocsBaseline * (1 + mineAllocTolerance)
	t.Logf("workers 1: %d allocs/op (ceiling %.0f)", r.AllocsPerOp(), ceiling)
	if float64(r.AllocsPerOp()) > ceiling {
		t.Fatalf("%d allocs/op > ceiling %.0f", r.AllocsPerOp(), ceiling)
	}
}

// TestMineBytesCeiling holds workers-1 extraction to the committed
// bytes/op plus mineAllocTolerance: density clustering and the closure
// allocate in proportion to one neighborhood, not to all of them.
func TestMineBytesCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling skipped in -short")
	}
	r := testing.Benchmark(mineBench(1))
	const ceiling = mineBytesBaseline * (1 + mineAllocTolerance)
	t.Logf("workers 1: %d B/op (ceiling %.0f)", r.AllocedBytesPerOp(), ceiling)
	if float64(r.AllocedBytesPerOp()) > ceiling {
		t.Fatalf("%d B/op > ceiling %.0f", r.AllocedBytesPerOp(), ceiling)
	}
}
