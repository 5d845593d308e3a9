// Package exec is the pipeline's execution layer: context-aware bounded
// worker pools shared by every stage of the Pervasive Miner. One loop,
// ParallelForSlots, splits an index range over a fixed number of
// workers and hands each task its worker slot for per-worker scratch;
// ParallelFor and ParallelMap wrap it for tasks that need no scratch.
// Result placement is deterministic — task i's result always lands at
// slot i — so a stage produces bit-identical output whether it runs on
// one worker or many. The first error (or a context cancellation)
// stops the pool and is returned; with a worker budget of one the loop
// runs inline, reproducing the sequential pipeline exactly.
//
// Worker panics never escape the pool: each task runs under a recover
// that converts a panic into a *PanicError carrying the panicking
// task's stack, which then propagates through the normal first-error
// path — the pool drains, siblings are canceled, and the caller gets an
// error instead of a crashed process. Recovered panics are counted as
// csdm_exec_panics_total when SetMetrics has wired a registry.
//
// The package also defines Options, the cross-cutting knob bundle —
// worker budget plus spatial-index backend — that flows from
// core.Config into every stage, and Note, which records a stage's
// task/worker counts on the telemetry trace.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"csdm/internal/fault"
	"csdm/internal/index"
	"csdm/internal/obs"
)

// execMetrics is the pool's process-metrics hook: the registry plus
// pre-resolved histograms, so the per-task cost when metrics are on is
// two time.Now calls and two atomic bumps — never a map lookup — and
// the cost when off is one atomic pointer load per pool invocation.
type execMetrics struct {
	reg  *obs.Registry
	task *obs.Histogram // csdm_exec_task_seconds
	wait *obs.Histogram // csdm_exec_queue_wait_seconds
}

var metricsHook atomic.Pointer[execMetrics]

// SetMetrics wires the execution layer to a process-lifetime metrics
// registry: every pool invocation then records per-task latency
// (csdm_exec_task_seconds), per-worker queue wait — the delay between
// pool start and a worker reaching its first task
// (csdm_exec_queue_wait_seconds) — the running task total
// (csdm_exec_tasks_total), and recovered panics
// (csdm_exec_panics_total, pre-declared at zero so the series exists
// before the first crash). Passing nil detaches; with no registry set
// the pools run at their uninstrumented speed.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		metricsHook.Store(nil)
		return
	}
	r.Describe("csdm_exec_task_seconds", "Latency of individual tasks run on the bounded worker pools.")
	r.Describe("csdm_exec_queue_wait_seconds", "Delay between pool start and a worker picking up its first task.")
	r.Describe("csdm_exec_tasks_total", "Tasks executed by the bounded worker pools.")
	r.Describe("csdm_exec_panics_total", "Worker panics recovered and converted to errors.")
	r.Add("csdm_exec_tasks_total", 0)
	r.Add("csdm_exec_panics_total", 0)
	metricsHook.Store(&execMetrics{
		reg:  r,
		task: r.Histogram("csdm_exec_task_seconds", obs.DefBuckets),
		wait: r.Histogram("csdm_exec_queue_wait_seconds", obs.DefBuckets),
	})
}

// PanicError is a worker panic converted to an error: the recovered
// value plus the stack captured at the panic site. It propagates
// through the pool's first-error path like any task failure.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: task panic: %v\n%s", e.Value, e.Stack)
}

// NewPanicError records a recovered panic value as a *PanicError,
// capturing the current stack and counting it on
// csdm_exec_panics_total when SetMetrics wired a registry. Recover sites outside the pool (e.g. per-approach mining)
// use it so every isolated panic is accounted the same way.
func NewPanicError(v any) *PanicError {
	if m := metricsHook.Load(); m != nil {
		m.reg.Add("csdm_exec_panics_total", 1)
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// call runs one task with panic isolation: a panicking fn(slot, i)
// yields a *PanicError instead of unwinding the worker goroutine. The
// "exec.task" fault site fires before the task body, so injected errors
// and panics exercise exactly the paths real task failures take.
func call(fn func(slot, i int) error, slot, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = NewPanicError(v)
		}
	}()
	if err := fault.Hit("exec.task"); err != nil {
		return err
	}
	return fn(slot, i)
}

// timedCall is call plus per-task latency observation when the metrics
// hook is set. With m == nil it compiles down to a plain call — no
// closure, no time reads — so uninstrumented pools allocate nothing
// extra per task.
func timedCall(m *execMetrics, fn func(slot, i int) error, slot, i int) error {
	if m == nil {
		return call(fn, slot, i)
	}
	t0 := time.Now()
	err := call(fn, slot, i)
	m.task.Observe(time.Since(t0).Seconds())
	return err
}

// Options carries the execution-layer knobs every pipeline stage
// shares. The zero value means "all cores, grid index".
type Options struct {
	// Workers bounds a stage's parallelism. Zero or negative means
	// runtime.NumCPU(); one runs the stage sequentially inline.
	Workers int
	// Index selects the spatial-index backend stages build their
	// range-query structures with.
	Index index.Kind
}

// Workers resolves a configured worker count: non-positive means
// runtime.NumCPU().
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Slots returns the number of distinct worker slots ParallelForSlots
// will use for n tasks under the given worker budget — the size callers
// give per-worker scratch. It is at least 1 so scratch slices can be
// indexed unconditionally.
func Slots(workers, n int) int {
	workers = Workers(workers)
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines (non-positive workers means runtime.NumCPU()). The first
// error cancels the remaining work and is returned; a canceled ctx
// aborts promptly with ctx.Err(). With an effective worker count of
// one, fn runs inline in index order — no goroutines — so a
// single-worker run is exactly the sequential loop.
func ParallelFor(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ParallelForSlots(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ParallelForSlots is ParallelFor for tasks that reuse per-worker
// scratch state: fn additionally receives the worker slot running the
// task, a value in [0, Slots(workers, n)) that is never held by two
// concurrent tasks. Callers index pre-sized scratch by it — buffers
// are per-slot, never shared — so reuse cannot race and, as long as a
// task's OUTPUT never depends on scratch contents left by a previous
// task, results stay bit-identical for any worker budget.
// With an effective worker count of one every task runs inline on slot
// 0 in index order.
func ParallelForSlots(ctx context.Context, workers, n int, fn func(slot, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	// Process-metrics hook: loaded once per pool invocation, so the
	// disabled path costs one atomic load and a nil compare. When set,
	// each task is timed and counted via timedCall; the multi-worker
	// path below also records per-worker queue wait. The hook must not
	// wrap fn in a closure or introduce closure-captured locals here —
	// either forces a heap escape that the uninstrumented hot path
	// would pay too (timedCall and the goroutine parameter below keep
	// everything escape-free).
	m := metricsHook.Load()
	if m != nil {
		m.reg.Add("csdm_exec_tasks_total", int64(n))
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := timedCall(m, fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	var poolStart time.Time
	if m != nil {
		poolStart = time.Now()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int, poolStart time.Time) {
			defer wg.Done()
			if m != nil {
				m.wait.Observe(time.Since(poolStart).Seconds())
			}
			for {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := timedCall(m, fn, slot, i); err != nil {
					fail(err)
					return
				}
			}
		}(w, poolStart)
	}
	wg.Wait()
	return firstErr
}

// ParallelMap runs fn(i) for every i in [0, n) under the same pool
// semantics as ParallelFor and returns the results in index order:
// out[i] is fn(i)'s value regardless of which worker computed it or
// when. On error the partial results are discarded.
func ParallelMap[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ParallelFor(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Note records one parallel stage on the trace: the exec.tasks counter
// accumulates how many tasks ran through the execution layer, and
// exec.workers accumulates the worker slots granted to stages (so the
// ratio is the mean fan-out). A nil trace is a no-op.
func Note(tr *obs.Trace, tasks, workers int) {
	tr.Add("exec.tasks", int64(tasks))
	tr.Add("exec.workers", int64(workers))
}
