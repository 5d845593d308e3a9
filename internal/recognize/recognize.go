// Package recognize assigns semantic properties to stay points,
// resolving the paper's semantic-absence challenge. It provides the
// CSD-based voting recognizer of Algorithm 3, the ROI hot-region
// baseline of Chen et al. [21] that the experiments compare against,
// and a plain nearest-POI recognizer used by ablations.
package recognize

import (
	"context"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// Recognizer resolves the semantic property of a stay-point location.
type Recognizer interface {
	// Name identifies the recognizer in experiment reports.
	Name() string
	// RecognizeBuf returns the semantic property of a stay at p; the
	// empty set when nothing is known about the location. It keeps all
	// transient state in sc (a zero Scratch is ready to use), so
	// annotation loops that thread one Scratch per worker slot allocate
	// nothing per stay.
	RecognizeBuf(p geo.Point, sc *Scratch) poi.Semantics
}

// Scratch is per-worker reusable state for recognition. One Scratch
// belongs to exactly one worker at a time (the zero value is ready to
// use); a recognizer may leave arbitrary garbage in it between calls
// but must never let an answer depend on that garbage, so scratch reuse
// cannot perturb worker-count determinism.
type Scratch struct {
	ids   []int
	uids  []int
	votes []float64
	tags  []poi.Semantics
}

// AnnotateCtx fills in the semantic property of every stay point of
// every trajectory in db, in place — the outer loop of Algorithm 3. It
// runs on a bounded worker pool, one task per trajectory, with one
// Scratch per worker slot; every Recognizer in this package is safe for
// concurrent readers. Each stay's property depends only on its own
// location, so the annotation is identical for any worker budget. A
// canceled ctx aborts with ctx.Err(), leaving db partially annotated.
func AnnotateCtx(ctx context.Context, db []trajectory.SemanticTrajectory, r Recognizer, workers int) error {
	scratch := make([]Scratch, exec.Slots(workers, len(db)))
	return exec.ParallelForSlots(ctx, workers, len(db), func(slot, ti int) error {
		sc := &scratch[slot]
		stays := db[ti].Stays
		for si := range stays {
			stays[si].S = r.RecognizeBuf(stays[si].P, sc)
		}
		return nil
	})
}

// RecognizeStays annotates stays in place with r, checking ctx between
// stays so a per-request deadline propagates into the recognition loop
// rather than only bounding the HTTP write. sc is optional per-caller
// scratch (nil allocates a fresh one); the serving layer threads one
// Scratch per request from a sync.Pool so steady-state recognition
// allocates nothing. Returns ctx.Err() on cancellation, leaving the
// remaining stays unannotated.
func RecognizeStays(ctx context.Context, stays []trajectory.StayPoint, r Recognizer, sc *Scratch) error {
	if sc == nil {
		sc = new(Scratch)
	}
	for i := range stays {
		if err := ctx.Err(); err != nil {
			return err
		}
		stays[i].S = r.RecognizeBuf(stays[i].P, sc)
	}
	return nil
}

// AnnotateJourneysEnv converts raw journeys into annotated semantic
// trajectories: chain card-linked journeys (§5), then recognize every
// stay point. It records a "recognize.<name>" span with chain and
// annotate children, plus counters for the stays the recognizer
// annotated versus left unknown (the empty property). Annotation fans
// out over env's worker pool; a canceled env.Ctx aborts with its error
// and a nil database.
func AnnotateJourneysEnv(env stage.Env, js []trajectory.Journey, chain trajectory.ChainParams, r Recognizer) ([]trajectory.SemanticTrajectory, error) {
	tr := env.Trace
	root := env.StartSpan("recognize." + r.Name())
	defer root.End()

	sp := root.Start("chain")
	db := trajectory.Chain(js, chain)
	sp.End()

	sp = root.Start("annotate")
	exec.Note(tr, len(db), exec.Workers(env.Opt.Workers))
	err := AnnotateCtx(env.Ctx, db, r, env.Opt.Workers)
	if tr != nil {
		tr.Observe(obs.Label("csdm_recognize_annotate_seconds", "recognizer", r.Name()),
			sp.Duration().Seconds())
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	if tr != nil {
		var annotated, unknown int64
		for _, st := range db {
			for _, stay := range st.Stays {
				if stay.S.IsEmpty() {
					unknown++
				} else {
					annotated++
				}
			}
		}
		tr.Add("recognize."+r.Name()+".stays.annotated", annotated)
		tr.Add("recognize."+r.Name()+".stays.unknown", unknown)
		tr.Add("recognize."+r.Name()+".trajectories", int64(len(db)))
	}
	return db, nil
}
