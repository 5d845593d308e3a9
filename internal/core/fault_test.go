package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/obs"
	"csdm/internal/synth"
)

// faultPipeline builds a small seeded pipeline for fault-injection
// tests: big enough that every stage does real work, small enough that
// a test can rebuild it several times.
func faultPipeline(t testing.TB, cfg Config) *Pipeline {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = 7
	scfg.NumPOIs = 1200
	scfg.NumPassengers = 120
	scfg.Days = 3
	city := synth.NewCity(scfg)
	w := city.GenerateWorkload()
	return NewPipeline(city.POIs, w.Journeys, cfg)
}

// activateFault installs a process-wide injector for the test and
// guarantees deactivation on exit.
func activateFault(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	in, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(in)
	t.Cleanup(func() { fault.Activate(nil) })
	return in
}

// TestMineAllSurvivesCSDBuildFault is the tentpole's acceptance check:
// with the CSD build failing, MineAllCtx still returns all six
// approaches, the three ROI ones with nil Err and real patterns, the
// three CSD ones carrying the injected error — and once the fault
// clears, the same pipeline rebuilds and fully recovers (the failed
// build must not poison the lazy cells).
func TestMineAllSurvivesCSDBuildFault(t *testing.T) {
	p := faultPipeline(t, DefaultConfig())
	activateFault(t, "csd.popularity:error:1")

	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Approaches()) {
		t.Fatalf("got %d results, want %d", len(res), len(Approaches()))
	}
	for _, r := range res {
		switch r.Approach.Recognizer {
		case RecROI:
			if r.Err != nil {
				t.Errorf("%s: err = %v, want nil", r.Approach, r.Err)
			}
			if len(r.Patterns) == 0 {
				t.Errorf("%s: no patterns despite healthy ROI path", r.Approach)
			}
		default:
			if !errors.Is(r.Err, fault.ErrInjected) {
				t.Errorf("%s: err = %v, want injected fault", r.Approach, r.Err)
			}
			if r.Degraded {
				t.Errorf("%s: degraded without DegradedFallback", r.Approach)
			}
		}
	}

	// Fault cleared: the same pipeline must rebuild the diagram and
	// succeed across the board.
	fault.Activate(nil)
	res, err = p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("after recovery %s: err = %v", r.Approach, r.Err)
		}
	}
}

// TestMineAllDegradedFallback checks the degradation ladder: with
// DegradedFallback set and the CSD build failing on every attempt, the
// three CSD approaches rerun on the ROI database, come back flagged
// Degraded with nil Err, and mine exactly what their ROI twins mine.
func TestMineAllDegradedFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegradedFallback = true
	p := faultPipeline(t, cfg)
	tr := obs.New()
	p.SetTrace(tr)
	activateFault(t, "csd.popularity:error:*")

	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	roiPatterns := make(map[ExtractorKind][]ApproachResult)
	for _, r := range res {
		if r.Approach.Recognizer == RecROI {
			roiPatterns[r.Approach.Extractor] = append(roiPatterns[r.Approach.Extractor], r)
		}
	}
	degraded := 0
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: err = %v, want degraded success", r.Approach, r.Err)
		}
		if r.Approach.Recognizer == RecROI {
			if r.Degraded {
				t.Errorf("%s: ROI approach flagged degraded", r.Approach)
			}
			continue
		}
		if !r.Degraded {
			t.Errorf("%s: not flagged degraded", r.Approach)
		}
		degraded++
		twin := roiPatterns[r.Approach.Extractor]
		if len(twin) != 1 || !reflect.DeepEqual(r.Patterns, twin[0].Patterns) {
			t.Errorf("%s: degraded patterns differ from its ROI twin", r.Approach)
		}
	}
	if degraded != 3 {
		t.Errorf("degraded approaches = %d, want 3", degraded)
	}
	if got := tr.Counter("core.approach.degraded"); got != 3 {
		t.Errorf("counter core.approach.degraded = %d, want 3", got)
	}
}

// TestMineCtxDegradedFallback checks that single-approach mining
// honors DegradedFallback too: a CSD approach whose diagram build
// fails silently reruns on the ROI database and mines what its ROI
// twin mines (this is the path the csdminer `mine` subcommand takes).
func TestMineCtxDegradedFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegradedFallback = true
	p := faultPipeline(t, cfg)
	tr := obs.New()
	p.SetTrace(tr)
	activateFault(t, "csd.popularity:error:*")

	got, err := p.MineCtx(context.Background(), CSDPM, testMiningParams())
	if err != nil {
		t.Fatalf("MineCtx with DegradedFallback: %v", err)
	}
	if tr.Counter("core.approach.degraded") != 1 {
		t.Error("counter core.approach.degraded not bumped")
	}
	want, err := p.MineCtx(context.Background(), ROIPM, testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("degraded MineCtx patterns differ from the ROI twin's")
	}

	// Without the flag the same failure is surfaced, not masked.
	cfg.DegradedFallback = false
	strict := faultPipeline(t, cfg)
	if _, err := strict.MineCtx(context.Background(), CSDPM, testMiningParams()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("strict MineCtx err = %v, want injected fault", err)
	}
}

// TestMineAllIsolatesExtractionPanic checks that a panic inside one
// approach's extraction becomes that approach's own *exec.PanicError
// while the other five mine normally, with the failure visible on the
// trace counters.
func TestMineAllIsolatesExtractionPanic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1 // sequential fan-out: the first extraction panics
	p := faultPipeline(t, cfg)
	tr := obs.New()
	p.SetTrace(tr)
	activateFault(t, "core.extract:panic:1")

	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i == 0 {
			var pe *exec.PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("%s: err = %v, want *exec.PanicError", r.Approach, r.Err)
			}
			if !fault.IsInjectedPanic(pe.Value) {
				t.Errorf("%s: panic value = %v, want injected", r.Approach, pe.Value)
			}
			if !strings.Contains(pe.Error(), "core.extract") {
				t.Errorf("%s: panic error lacks the site name: %v", r.Approach, pe)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: err = %v, want isolation from the panic", r.Approach, r.Err)
		}
	}
	if got := tr.Counter("exec.panics"); got != 1 {
		t.Errorf("counter exec.panics = %d, want 1", got)
	}
	if got := tr.Counter("core.approach.failures"); got != 1 {
		t.Errorf("counter core.approach.failures = %d, want 1", got)
	}
}

// TestMineAllCancellationMidFlight cancels the run context while the
// fan-out is working (a delay fault holds every extraction open long
// enough for the cancel to land mid-MineAll): the call must return
// ctx.Err() promptly, the pool must drain without leaking, and the
// same pipeline must mine cleanly afterwards — cancellation never
// poisons the shared artifacts.
func TestMineAllCancellationMidFlight(t *testing.T) {
	p := faultPipeline(t, DefaultConfig())
	activateFault(t, "core.extract:delay:*:500ms")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := p.MineAllCtx(ctx, testMiningParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
	}

	fault.Activate(nil)
	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("after cancel %s: err = %v", r.Approach, r.Err)
		}
	}
}

// TestStageTimeoutFailsSlowStage checks that a stage overrunning
// Config.StageTimeout fails with an error naming the stage and
// wrapping context.DeadlineExceeded while the run context stays live —
// and that once the slowness clears, the stage rebuilds.
func TestStageTimeoutFailsSlowStage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StageTimeout = 2 * time.Second
	p := faultPipeline(t, cfg)
	tr := obs.New()
	p.SetTrace(tr)
	activateFault(t, "csd.clustering:delay:*:3s")

	_, err := p.DiagramCtx(context.Background())
	if err == nil {
		t.Fatal("slow stage beat its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "csd.build") {
		t.Errorf("err does not name the stage: %v", err)
	}
	if got := tr.Counter(obs.Label("csdm_stage_timeouts_total", "stage", "csd.build")); got == 0 {
		t.Error("csd.build stage timeout not counted")
	}

	fault.Activate(nil)
	if d, err := p.DiagramCtx(context.Background()); err != nil {
		t.Fatalf("rebuild after timeout: %v", err)
	} else if len(d.Units) == 0 {
		t.Fatal("rebuild after timeout produced an empty diagram")
	}
}

// TestStageTimeoutDegradesMineAll combines the two mechanisms: a CSD
// build that times out under StageTimeout degrades to ROI recognition
// when DegradedFallback is set, so MineAll still returns six usable
// results.
func TestStageTimeoutDegradesMineAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StageTimeout = 2 * time.Second
	cfg.DegradedFallback = true
	p := faultPipeline(t, cfg)
	activateFault(t, "csd.clustering:delay:*:3s")

	// Only the CSD build overruns the deadline: the delay fires inside
	// it, while annotation and extraction finish well within 2s on
	// this workload.
	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Approach.Recognizer == RecCSD && !r.Degraded {
			t.Errorf("%s: not degraded after CSD timeout", r.Approach)
		}
		if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v", r.Approach, r.Err)
		}
	}
}
