package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"csdm/internal/ckpt"
	"csdm/internal/core"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/synth"
)

// checkpointPipeline regenerates the identical seeded workload each
// call, so successive pipelines differ only in what they resume.
func checkpointPipeline(t *testing.T, tr *obs.Trace) *core.Pipeline {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = 21
	scfg.NumPOIs = 1000
	scfg.NumPassengers = 100
	scfg.Days = 3
	city := synth.NewCity(scfg)
	w := city.GenerateWorkload()
	p := core.NewPipeline(city.POIs, w.Journeys, core.DefaultConfig())
	p.SetTrace(tr)
	return p
}

func minePatterns(t *testing.T, p *core.Pipeline) []byte {
	t.Helper()
	params := pattern.DefaultParams()
	params.Sigma = 25
	ps, err := p.MineCtx(context.Background(), core.CSDPM, params)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointResumeAfterInterruption is the checkpoint acceptance
// check: a run killed between stages leaves a directory from which the
// rerun skips every completed stage — proven by the trace counters: no
// csd.build work, ckpt.resume.* bumped — and still mines byte-identical
// patterns to an uninterrupted run.
func TestCheckpointResumeAfterInterruption(t *testing.T) {
	dir := t.TempDir()

	// Reference: an uninterrupted, uncheckpointed run.
	want := minePatterns(t, checkpointPipeline(t, nil))

	// Run 1 is "interrupted": the diagram stage completes and
	// checkpoints, then the process dies before annotation starts —
	// the database stages are simply never built.
	tr1 := obs.New()
	m1, err := ckpt.New(dir, tr1)
	if err != nil {
		t.Fatal(err)
	}
	p1 := checkpointPipeline(t, tr1)
	p1.SetCheckpoints(m1)
	if _, err := p1.DiagramCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tr1.Counter("ckpt.saved.diagram"); got != 1 {
		t.Fatalf("interrupted run saved.diagram = %d, want 1", got)
	}

	// Run 2 resumes: the diagram must load from the checkpoint (no
	// construction work at all), the database builds and checkpoints,
	// and mining matches the reference byte for byte.
	tr2 := obs.New()
	m2, err := ckpt.New(dir, tr2)
	if err != nil {
		t.Fatal(err)
	}
	p2 := checkpointPipeline(t, tr2)
	p2.SetCheckpoints(m2)
	if _, err := p2.DiagramCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.DatabaseCtx(context.Background(), core.RecCSD); err != nil {
		t.Fatal(err)
	}
	if got := tr2.Counter("ckpt.resume.diagram"); got != 1 {
		t.Errorf("resumed run resume.diagram = %d, want 1", got)
	}
	if got := tr2.Counter("csd.units.final"); got != 0 {
		t.Errorf("resumed run rebuilt the diagram (csd.units.final = %d)", got)
	}
	if got := tr2.Counter("ckpt.saved.db-csd"); got != 1 {
		t.Errorf("resumed run saved.db-csd = %d, want 1", got)
	}
	if got := minePatterns(t, p2); !bytes.Equal(want, got) {
		t.Error("patterns after diagram resume differ from the uninterrupted run")
	}

	// Run 3 resumes everything: both stages skip, output unchanged.
	tr3 := obs.New()
	m3, err := ckpt.New(dir, tr3)
	if err != nil {
		t.Fatal(err)
	}
	p3 := checkpointPipeline(t, tr3)
	p3.SetCheckpoints(m3)
	if _, err := p3.DiagramCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p3.DatabaseCtx(context.Background(), core.RecCSD); err != nil {
		t.Fatal(err)
	}
	if tr3.Counter("ckpt.resume.diagram") != 1 || tr3.Counter("ckpt.resume.db-csd") != 1 {
		t.Errorf("full resume counters = %d/%d, want 1/1",
			tr3.Counter("ckpt.resume.diagram"), tr3.Counter("ckpt.resume.db-csd"))
	}
	if got := tr3.Counter("csd.units.final"); got != 0 {
		t.Errorf("full resume rebuilt the diagram (csd.units.final = %d)", got)
	}
	if got := minePatterns(t, p3); !bytes.Equal(want, got) {
		t.Error("patterns after full resume differ from the uninterrupted run")
	}
}
