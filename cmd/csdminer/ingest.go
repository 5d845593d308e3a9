package main

import (
	"context"
	"fmt"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/core"
	"csdm/internal/trajectory"
)

// runIngest streams a journey log into the diagram as delta batches.
// The maintainer seeds from the pipeline's base journeys (generation
// 1, bit-identical to a one-shot build), each batch of batchJourneys
// stream journeys applies as one delta, and every resulting generation
// is persisted as diagram.<gen>.csdf with the CURRENT pointer flipped
// atomically after the snapshot is safely on disk — so a concurrent
// csdserve -watch (or a crash-restarted one) only ever loads complete
// generations. One machine-parseable line per applied batch goes to
// stdout.
func runIngest(pipe *core.Pipeline, mgr *ckpt.Manager, stream []trajectory.Journey, batchJourneys, keepGens int) error {
	progress("streaming %d journeys in batches of %d", len(stream), batchJourneys)

	ctx := context.Background()
	t0 := time.Now()
	m, err := pipe.MaintainerCtx(ctx)
	if err != nil {
		return fmt.Errorf("seed maintainer: %w", err)
	}
	base := m.Diagram()
	// A checkpoint directory with existing generation snapshots means a
	// previous stream already published there: continue its numbering
	// rather than restarting at 1 and overwriting published lineage
	// (callers pass the union of everything already ingested as
	// -journeys, so the content picks up where the last run left off).
	if gens, gerr := ckpt.Generations(mgr.Dir()); gerr == nil && len(gens) > 0 && gens[len(gens)-1] >= base.Generation {
		next := gens[len(gens)-1] + 1
		progress("continuing lineage: newest published generation is %d, base becomes %d", gens[len(gens)-1], next)
		m.SetGeneration(next)
	}
	if err := mgr.SaveGenerationDiagram(base); err != nil {
		return fmt.Errorf("persist base generation: %w", err)
	}
	progress("base diagram (generation %d, %d units) seeded in %.1fs",
		base.Generation, len(base.Units), time.Since(t0).Seconds())
	fmt.Printf("generation=%d stays=%d units=%d batch_stays=0 affected_pois=0 dirty_components=0 dirty_units=0 reused_units=%d seconds=%.3f\n",
		base.Generation, m.StayCount(), len(base.Units), len(base.Units), time.Since(t0).Seconds())

	for lo := 0; lo < len(stream); lo += batchJourneys {
		hi := lo + batchJourneys
		if hi > len(stream) {
			hi = len(stream)
		}
		batch := core.Stays(stream[lo:hi])
		bt := time.Now()
		d, st, err := pipe.IngestBatch(ctx, batch)
		if err != nil {
			return fmt.Errorf("apply batch at journey %d: %w", lo, err)
		}
		if err := mgr.SaveGenerationDiagram(d); err != nil {
			return fmt.Errorf("persist generation %d: %w", d.Generation, err)
		}
		if keepGens > 0 {
			if _, err := mgr.PruneGenerations(keepGens); err != nil {
				return fmt.Errorf("prune generations: %w", err)
			}
		}
		fmt.Printf("generation=%d stays=%d units=%d batch_stays=%d affected_pois=%d dirty_components=%d dirty_units=%d reused_units=%d seconds=%.3f\n",
			st.Generation, m.StayCount(), len(d.Units), st.BatchStays,
			st.AffectedPOIs, st.DirtyComponents, st.DirtyUnits, st.ReusedUnits,
			time.Since(bt).Seconds())
	}
	path, err := ckpt.ResolveCurrent(mgr.Dir())
	if err != nil {
		return fmt.Errorf("verify CURRENT: %w", err)
	}
	progress("stream complete: generation %d published at %s", m.Generation(), path)
	return nil
}
