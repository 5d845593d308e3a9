package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"csdm/internal/fault"
)

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 1000
		counts := make([]int32, n)
		err := ParallelFor(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelMapDeterministicOrdering(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out, err := ParallelMap(context.Background(), workers, 500, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParallelForFirstErrorStopsWork(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var ran atomic.Int64
		err := ParallelFor(context.Background(), workers, 10000, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if got := ran.Load(); got == 10000 {
			t.Fatalf("workers=%d: error did not stop the pool (all %d tasks ran)", workers, got)
		}
	}
}

func TestParallelForCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		called := false
		err := ParallelFor(ctx, workers, 100, func(i int) error {
			called = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if called {
			t.Fatalf("workers=%d: fn ran despite pre-canceled context", workers)
		}
	}
}

func TestParallelForMidFlightCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ParallelFor(ctx, 4, 100000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 100000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

func TestParallelMapErrorDiscardsResults(t *testing.T) {
	out, err := ParallelMap(context.Background(), 4, 100, func(i int) (int, error) {
		if i == 50 {
			return 0, errors.New("mid-run failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Fatal("partial results should be discarded on error")
	}
}

func TestParallelForEmptyAndWorkerResolution(t *testing.T) {
	if err := ParallelFor(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must resolve non-positive budgets to at least 1")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers must pass positive budgets through")
	}
}

// TestPanicIsolation pins the panic contract for both the inline and
// pooled paths: a panicking task surfaces as a *PanicError with the
// panic value and a captured stack, and the pool drains without
// deadlock.
func TestPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ParallelFor(context.Background(), workers, 100, func(i int) error {
			if i == 7 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "kaboom" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: missing stack or value in %q", workers, err)
		}
	}
}

// TestPanicPoolStaysReusable proves a panicked pool leaves the package
// in a working state: the very next ParallelFor completes every task.
func TestPanicPoolStaysReusable(t *testing.T) {
	_ = ParallelFor(context.Background(), 4, 50, func(i int) error {
		panic(i)
	})
	var ran atomic.Int64
	if err := ParallelFor(context.Background(), 4, 500, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 500 {
		t.Fatalf("ran %d/500 tasks after a panicked pool", ran.Load())
	}
}

// TestFaultSiteExecTask drives the exec.task injection site through
// both the error and panic kinds.
func TestFaultSiteExecTask(t *testing.T) {
	in, err := fault.Parse("exec.task:error:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(in)
	defer fault.Activate(nil)
	err = ParallelFor(context.Background(), 1, 10, func(i int) error { return nil })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	in, _ = fault.Parse("exec.task:panic:2", 1)
	fault.Activate(in)
	err = ParallelFor(context.Background(), 4, 10, func(i int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || !fault.IsInjectedPanic(pe.Value) {
		t.Fatalf("err = %v, want *PanicError carrying an injected panic", err)
	}
}
