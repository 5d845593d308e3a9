package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"csdm/internal/synth"
)

// determinismPipeline builds a pipeline over a seeded synthetic city
// with the given worker budget. Each call regenerates the identical
// workload, so two pipelines differ only in their execution plan.
func determinismPipeline(t testing.TB, workers int) *Pipeline {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = 42
	scfg.NumPOIs = 2500
	scfg.NumPassengers = 400
	scfg.Days = 7
	city := synth.NewCity(scfg)
	w := city.GenerateWorkload()
	cfg := DefaultConfig()
	cfg.Workers = workers
	return NewPipeline(city.POIs, w.Journeys, cfg)
}

// TestWorkerCountDeterminism pins the execution layer's core contract:
// the pipeline's output is bit-identical for any worker budget. The
// sequential (Workers=1) run is the reference; the parallel run must
// reproduce the serialized diagram byte for byte, both annotated
// databases, and every approach's mined pattern list in the same order.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison")
	}
	seq := determinismPipeline(t, 1)
	par := determinismPipeline(t, 8)
	params := testMiningParams()

	var seqDiagram, parDiagram bytes.Buffer
	if err := mustDiagram(t, seq).Write(&seqDiagram); err != nil {
		t.Fatal(err)
	}
	if err := mustDiagram(t, par).Write(&parDiagram); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqDiagram.Bytes(), parDiagram.Bytes()) {
		t.Fatal("serialized diagrams differ between Workers=1 and Workers=8")
	}

	for _, kind := range []RecognizerKind{RecCSD, RecROI} {
		if !reflect.DeepEqual(mustDatabase(t, seq, kind), mustDatabase(t, par, kind)) {
			t.Fatalf("database %d differs between Workers=1 and Workers=8", kind)
		}
	}

	ctx := context.Background()
	seqRes, err := seq.MineAllCtx(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := par.MineAllCtx(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes) != len(parRes) {
		t.Fatalf("result counts differ: %d vs %d", len(seqRes), len(parRes))
	}
	for i := range seqRes {
		if seqRes[i].Approach != parRes[i].Approach {
			t.Fatalf("result %d approach order differs: %s vs %s",
				i, seqRes[i].Approach, parRes[i].Approach)
		}
		if !reflect.DeepEqual(seqRes[i].Patterns, parRes[i].Patterns) {
			t.Errorf("%s: patterns differ between Workers=1 and Workers=8 (%d vs %d)",
				seqRes[i].Approach, len(seqRes[i].Patterns), len(parRes[i].Patterns))
		}
	}
}

// TestMineAllOrder checks that MineAllCtx reports results in
// Approaches() order regardless of which extraction finishes first.
func TestMineAllOrder(t *testing.T) {
	p := buildPipeline(t)
	res, err := p.MineAllCtx(context.Background(), testMiningParams())
	if err != nil {
		t.Fatal(err)
	}
	as := Approaches()
	if len(res) != len(as) {
		t.Fatalf("got %d results, want %d", len(res), len(as))
	}
	for i, r := range res {
		if r.Approach != as[i] {
			t.Errorf("result %d = %s, want %s", i, r.Approach, as[i])
		}
	}
}

// TestCancellation checks that a canceled context aborts the expensive
// stages with ctx.Err() instead of completing or hanging, and that the
// aborted build does not poison the lazy cells — the same pipeline must
// still build everything on a later, live context.
func TestCancellation(t *testing.T) {
	p := determinismPipeline(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := p.DiagramCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("DiagramCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := p.DatabaseCtx(ctx, RecCSD); !errors.Is(err, context.Canceled) {
		t.Fatalf("DatabaseCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := p.MineAllCtx(ctx, testMiningParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineAllCtx on canceled ctx: err = %v, want context.Canceled", err)
	}

	// The aborted attempts must not have cached partial artifacts.
	if d, err := p.DiagramCtx(context.Background()); err != nil || len(d.Units) == 0 {
		t.Fatalf("rebuild after cancellation: diagram = %v units, err = %v", d, err)
	}
	if _, err := p.MineCtx(context.Background(), CSDPM, testMiningParams()); err != nil {
		t.Fatalf("mine after cancellation: %v", err)
	}
}
