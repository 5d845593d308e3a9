package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/recognize"
	"csdm/internal/trajectory"
)

// mineCity is the batch path of `csdminer mine`: each operation is one
// cold pipeline from stays to CSD-PM patterns — diagram construction,
// Algorithm 3 annotation and Algorithm 4 extraction.
func mineCity(r *runner) error {
	var c corpus
	if err := r.setup(func() error {
		c = cityCorpus(r.o.seed, r.o.scale)
		return nil
	}); err != nil {
		return err
	}
	r.rep.Digests["corpus"] = c.digest()
	cfg := pipelineConfig()
	params := mineParams()

	var (
		want, got mineResult
		last      mineRun
	)
	once := func(ph *phase) error {
		run, err := minePipeline(r, ph, c, cfg, params)
		if err != nil {
			return err
		}
		if got, err = run.result(); err != nil {
			return err
		}
		if want == (mineResult{}) {
			want = got
		} else if got != want {
			r.rep.fail("mine-city repetition %d: %+v, first repetition %+v", r.rep.Attempted, got, want)
		}
		last = run
		return nil
	}
	// The first repetition warms caches and the heap; it is discarded.
	if err := once(&phase{}); err != nil {
		return err
	}
	un, tr, err := r.measure(func(ph *phase) error {
		for len(ph.ops) == 0 || !ph.over() {
			if err := once(ph); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.Digests["diagram_payload_sha256"] = want.payload
	r.rep.Digests["units"] = strconv.Itoa(want.units)
	r.rep.Digests["patterns"] = strconv.Itoa(want.patterns)
	r.rep.set("mine_s", "s", median(un.ops)/1000, len(un.ops))

	if tr != nil {
		if err := r.mineProbes(c, last); err != nil {
			return err
		}
		r.indexMetrics(c.pois, c.stays)
		var build, children float64
		for _, s := range tr.layers {
			build += s["csd.build"]
			for _, k := range []string{"popularity", "clustering", "purification", "merging", "finalize"} {
				children += s["csd.build/"+k]
			}
		}
		if build > 0 {
			r.rep.set("csd.span_coverage", "ratio", children/build, len(tr.layers))
		}
	}
	return nil
}

// mineRun is what one pipeline repetition produced.
type mineRun struct {
	diagram  *csd.Diagram
	db       []trajectory.SemanticTrajectory
	patterns []pattern.Pattern
}

// mineResult is the output a repetition is checked on: it must be the
// same every time.
type mineResult struct {
	payload         string
	units, patterns int
}

func (m mineRun) result() (mineResult, error) {
	p, err := payload(m.diagram)
	if err != nil {
		return mineResult{}, err
	}
	return mineResult{payload: sha(p), units: len(m.diagram.Units), patterns: len(m.patterns)}, nil
}

// minePipeline times one cold pipeline, with a benchmark span around
// each public call and, traced, the program's spans grafted under it.
func minePipeline(r *runner, ph *phase, c corpus, cfg core.Config, params pattern.Params) (mineRun, error) {
	var run mineRun
	// Every repetition starts from a collected heap, so the GC cycles
	// inside it — and the peak memory they allow — repeat run to run.
	runtime.GC()
	tr := ph.obsTrace()
	root := ph.tr.start(0, "mine.pipeline")
	t0 := time.Now()
	sp := ph.tr.start(root.id, "core.NewPipeline")
	p := core.NewPipeline(c.pois, c.journeys, cfg)
	p.SetTrace(tr)
	sp.end()

	seen := 0
	call := func(name string, fn func() error) error {
		sp := ph.tr.start(root.id, name)
		err := fn()
		sp.end()
		seen = sp.graft(tr, seen)
		return err
	}
	err := call("core.Pipeline.DiagramCtx", func() (err error) {
		run.diagram, err = p.DiagramCtx(r.ctx)
		return err
	})
	if err == nil {
		err = call("core.Pipeline.DatabaseCtx", func() (err error) {
			run.db, err = p.DatabaseCtx(r.ctx, core.RecCSD)
			return err
		})
	}
	if err == nil {
		err = call("core.Pipeline.MineCtx", func() (err error) {
			run.patterns, err = p.MineCtx(r.ctx, core.CSDPM, params)
			return err
		})
	}
	elapsed := time.Since(t0)
	root.end()
	r.rep.Attempted++
	if err != nil {
		r.rep.Failed++
		return run, fmt.Errorf("pipeline: %w", err)
	}
	ph.record(elapsed)
	if tr != nil {
		ph.layers = append(ph.layers, flatten(tr))
	}
	return run, nil
}

// mineProbes measures the two mine-city layer metrics no pipeline span
// covers, on the last repetition's artifacts, and checks both against
// the pipeline's output:
//   - recognize.vote_ms: Algorithm 3's range query and vote alone, one
//     sequential RecognizeStays over every stay of the database, which
//     must reproduce the pipeline's parallel annotation;
//   - csd.frompop_ms: construction phase 2 alone (BuildFromPopularity
//     on the diagram's own popularity), which must reproduce the
//     diagram byte for byte.
func (r *runner) mineProbes(c corpus, last mineRun) error {
	var stays []trajectory.StayPoint
	for _, st := range last.db {
		stays = append(stays, st.Stays...)
	}
	probe := make([]trajectory.StayPoint, len(stays))
	for i, s := range stays {
		probe[i].P = s.P
	}
	t0 := time.Now()
	if err := recognize.RecognizeStays(r.ctx, probe, recognize.NewCSDRecognizer(last.diagram), new(recognize.Scratch)); err != nil {
		return err
	}
	r.rep.set("recognize.vote_ms", "ms", ms(time.Since(t0)), len(probe))
	for i := range probe {
		if probe[i].S != stays[i].S {
			r.rep.fail("stay %d: sequential recognition %v, pipeline annotation %v", i, probe[i].S, stays[i].S)
			break
		}
	}

	tr := obs.New()
	d, err := csd.BuildFromPopularity(env(r.ctx, tr), c.pois, last.diagram.Pop, csdParams())
	if err != nil {
		return err
	}
	r.rep.set("csd.frompop_ms", "ms", flatten(tr)["csd.frompop"], 1)
	a, err := payload(d)
	if err != nil {
		return err
	}
	b, err := payload(last.diagram)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		r.rep.fail("BuildFromPopularity payload %s differs from the pipeline diagram's %s", sha(a), sha(b))
	}
	return nil
}
