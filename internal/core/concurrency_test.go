package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"csdm/internal/fault"
	"csdm/internal/pattern"
	"csdm/internal/synth"
)

// TestMineCtxReturnsInjectedExtractError: an extraction fault reaches
// the MineCtx caller as its error, with no patterns alongside it.
func TestMineCtxReturnsInjectedExtractError(t *testing.T) {
	p := faultPipeline(t, DefaultConfig())
	activateFault(t, "core.extract:error:*")

	ps, err := p.MineCtx(context.Background(), CSDPM, testMiningParams())
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("MineCtx under an extraction fault: err = %v, want the injected error", err)
	}
	if ps != nil {
		t.Fatalf("MineCtx returned %d patterns with its error", len(ps))
	}
}

// TestMineAllCtxConcurrentReaders runs two MineAllCtx calls on one
// Pipeline from concurrent goroutines (run under -race in CI): the
// stage cells must serialize the shared-artifact builds and both
// readers must see identical results.
func TestMineAllCtxConcurrentReaders(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.NumPOIs = 1200
	cfg.NumPassengers = 120
	cfg.Days = 2
	city := synth.NewCity(cfg)
	w := city.GenerateWorkload()
	params := pattern.DefaultParams()
	params.Sigma = 8

	p := NewPipeline(city.POIs, w.Journeys, DefaultConfig())

	var wg sync.WaitGroup
	results := make([][]ApproachResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.MineAllCtx(context.Background(), params)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	for k := range results[0] {
		a, b := results[0][k], results[1][k]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s failed: %v / %v", a.Approach, a.Err, b.Err)
		}
		if !reflect.DeepEqual(a.Patterns, b.Patterns) {
			t.Fatalf("%s: concurrent readers disagree (%d vs %d patterns)",
				a.Approach, len(a.Patterns), len(b.Patterns))
		}
	}
}
