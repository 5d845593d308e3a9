// Package core composes the full Pervasive Miner pipeline (Figure 2) and
// the five competitor systems of §5. A Pipeline owns the shared inputs
// (POI dataset, taxi journeys) and declares the shared expensive
// artifacts — the City Semantic Diagram, the ROI hot regions, and the
// two annotated trajectory databases — as memoized stages on an
// internal/stage graph (stays → diagram/roi → dbCSD/dbROI → six
// extractions), so that parameter sweeps over σ/ρ/δ_t re-run only the
// extraction stage, exactly as the paper's experiments do.
//
// The stage engine supplies every cross-cutting concern as middleware:
// telemetry spans, per-stage deadlines (Config.StageTimeout), fault
// sites, checkpoint resume/save (SetCheckpoints), and retry-safe
// memoization. core declares the graph and the mining policy — the
// degraded-fallback ladder and the per-approach failure isolation of
// MineAllCtx — and nothing else.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// RecognizerKind selects the semantic-recognition stage.
type RecognizerKind int

// The recognizer kinds of §5.
const (
	// RecCSD is City Semantic Diagram recognition (Algorithm 3).
	RecCSD RecognizerKind = iota
	// RecROI is the hot-region baseline of [21].
	RecROI
)

// ExtractorKind selects the pattern-extraction stage.
type ExtractorKind int

// The extractor kinds of §5.
const (
	// ExtPM is Pervasive Miner's CounterpartCluster (Algorithm 4).
	ExtPM ExtractorKind = iota
	// ExtSplitter is the Mean-Shift baseline of [17].
	ExtSplitter
	// ExtSDBSCAN is the DBSCAN baseline of [19].
	ExtSDBSCAN
)

// Approach is one of the six implementations compared in §5.
type Approach struct {
	Recognizer RecognizerKind
	Extractor  ExtractorKind
}

// The six approaches, named as in the paper.
var (
	CSDPM       = Approach{RecCSD, ExtPM}
	ROIPM       = Approach{RecROI, ExtPM}
	CSDSplitter = Approach{RecCSD, ExtSplitter}
	ROISplitter = Approach{RecROI, ExtSplitter}
	CSDSDBSCAN  = Approach{RecCSD, ExtSDBSCAN}
	ROISDBSCAN  = Approach{RecROI, ExtSDBSCAN}
)

// Approaches lists all six systems in the paper's order.
func Approaches() []Approach {
	return []Approach{CSDPM, ROIPM, CSDSplitter, ROISplitter, CSDSDBSCAN, ROISDBSCAN}
}

// String implements fmt.Stringer with the paper's naming.
func (a Approach) String() string {
	rec := "CSD"
	if a.Recognizer == RecROI {
		rec = "ROI"
	}
	switch a.Extractor {
	case ExtSplitter:
		return rec + "-Splitter"
	case ExtSDBSCAN:
		return rec + "-SDBSCAN"
	default:
		return rec + "-PM"
	}
}

// ApproachByName resolves one of the paper's six approach names
// (e.g. "CSD-PM", "ROI-SDBSCAN").
func ApproachByName(name string) (Approach, error) {
	for _, a := range Approaches() {
		if a.String() == name {
			return a, nil
		}
	}
	return Approach{}, fmt.Errorf("unknown approach %q", name)
}

// Config bundles the construction parameters of the shared stages.
type Config struct {
	// CSD parameterizes diagram construction (§4.1 defaults).
	CSD csd.Params
	// ROI parameterizes the hot-region baseline.
	ROI recognize.ROIParams
	// Chain parameterizes journey chaining (§5).
	Chain trajectory.ChainParams
	// Workers bounds the parallelism of every pipeline stage. Zero or
	// negative means runtime.NumCPU(); one runs the whole pipeline
	// sequentially. Every output is identical for any worker count.
	Workers int
	// Index selects the spatial-index backend of every stage.
	Index index.Kind
	// StageTimeout bounds each expensive stage — diagram construction,
	// database annotation, per-approach extraction — with its own
	// deadline. A stage that overruns fails with an error wrapping
	// context.DeadlineExceeded while the run's own context stays live,
	// so one stuck stage cannot hang a whole MineAllCtx. Zero disables
	// stage deadlines.
	StageTimeout time.Duration
	// DegradedFallback lets MineAllCtx degrade instead of fail: when the
	// CSD build or its annotation errors out (or hits StageTimeout),
	// the CSD-recognizer approaches rerun on the ROI hot-region
	// database and their results are flagged Degraded, trading the
	// paper's recognition quality for availability.
	DegradedFallback bool
}

// ExecOptions derives the execution-layer option bundle every stage
// receives from the config.
func (c Config) ExecOptions() exec.Options {
	return exec.Options{Workers: c.Workers, Index: c.Index}
}

// DefaultConfig returns the paper's default construction parameters,
// with one adaptation: KeepSingletons is enabled so that POIs left over
// by popularity clustering still participate in recognition as
// singleton units. The paper's 1.2M-POI dataset is two orders of
// magnitude denser than laptop-scale workloads, so its units cover the
// city wall to wall; at lower densities the paper-exact setting leaves
// anchor neighborhoods without any unit and recognition degrades to
// "unknown" exactly where traffic is highest.
func DefaultConfig() Config {
	c := Config{
		CSD:     csd.DefaultParams(),
		ROI:     recognize.DefaultROIParams(),
		Chain:   trajectory.DefaultChainParams(),
		Workers: runtime.NumCPU(),
		Index:   index.KindGrid,
	}
	c.CSD.KeepSingletons = true
	return c
}

// Pipeline owns the inputs and the declared stage graph over the
// shared artifacts.
type Pipeline struct {
	cfg      Config
	pois     []poi.POI
	journeys []trajectory.Journey

	// trace is the optional telemetry sink (nil-safe no-op when absent).
	trace *obs.Trace
	// store is the optional checkpoint store (nil disables resume/save).
	store stage.Store

	graph      *stage.Graph
	stays      *stage.Cell[[]geo.Point]
	diagram    *stage.Cell[*csd.Diagram]
	maintainer *stage.Cell[*csd.Maintainer]
	roi        *stage.Cell[*recognize.ROIRecognizer]
	dbCSD      *stage.Cell[[]trajectory.SemanticTrajectory]
	dbROI      *stage.Cell[[]trajectory.SemanticTrajectory]
}

// SetTrace attaches a telemetry trace; every stage built afterwards
// records spans and counters on it. Attach before the first build —
// already-built artifacts are not re-traced.
func (p *Pipeline) SetTrace(t *obs.Trace) { p.trace = t }

// Trace returns the attached telemetry trace (nil when tracing is off).
func (p *Pipeline) Trace() *obs.Trace { return p.trace }

// SetCheckpoints attaches a checkpoint store (e.g. *ckpt.Manager): the
// stages that declare an artifact — the diagram and the two annotated
// databases — resume from it when a valid checkpoint is there and save
// to it after building. Attach before the first build; already-built
// artifacts are neither re-loaded nor saved.
func (p *Pipeline) SetCheckpoints(s stage.Store) { p.store = s }

// Stays derives the stay-point sequence from a journey log: pickup
// then dropoff per journey, in journey order. This ordering IS the
// canonical global stay-id assignment every bit-identity argument in
// the codebase refers to — the monolithic pipeline's stays stage, the
// incremental maintainer's append contract and the sharded build's
// out-of-core spill all produce or consume exactly this sequence.
func Stays(journeys []trajectory.Journey) []geo.Point {
	out := make([]geo.Point, 0, 2*len(journeys))
	for _, j := range journeys {
		out = append(out, j.Pickup, j.Dropoff)
	}
	return out
}

// NewPipeline prepares a pipeline over the given POI dataset and taxi
// journey log, declaring the shared-artifact stage graph:
//
//	stays → csd.build → recognize.CSD
//	stays → roi.detect → recognize.ROI
//
// with the six per-approach extractions running as one-shot stages on
// top (MineCtx / MineAllCtx).
func NewPipeline(pois []poi.POI, journeys []trajectory.Journey, cfg Config) *Pipeline {
	p := &Pipeline{cfg: cfg, pois: pois, journeys: journeys}
	// The config closure is re-read on every stage run, so SetTrace and
	// SetCheckpoints may be wired after construction.
	p.graph = stage.NewGraph(func() stage.Config {
		return stage.Config{
			Trace:        p.trace,
			Opt:          p.cfg.ExecOptions(),
			StageTimeout: p.cfg.StageTimeout,
			Store:        p.store,
		}
	})

	p.stays = stage.Add(p.graph, stage.Decl{Name: "stays"},
		func(stage.Env) ([]geo.Point, error) {
			return Stays(p.journeys), nil
		})

	p.diagram = stage.Add(p.graph, stage.Decl{
		Name:     "csd.build",
		Deps:     []string{"stays"},
		Artifact: "diagram",
		File:     ckpt.DiagramFile,
	}, func(env stage.Env) (*csd.Diagram, error) {
		stays, err := p.stays.Get(env.Run)
		if err != nil {
			return nil, err
		}
		return csd.BuildEnv(env, p.pois, stays, p.cfg.CSD)
	}).Checkpoint(stage.Codec[*csd.Diagram]{
		Encode: func(w io.Writer, d *csd.Diagram) error { return d.Write(w) },
		Decode: csd.Read,
	})

	p.maintainer = stage.Add(p.graph, stage.Decl{
		Name: "csd.maintain",
		Deps: []string{"stays"},
	}, func(env stage.Env) (*csd.Maintainer, error) {
		stays, err := p.stays.Get(env.Run)
		if err != nil {
			return nil, err
		}
		return csd.NewMaintainerEnv(env, p.pois, stays, p.cfg.CSD)
	})

	p.roi = stage.Add(p.graph, stage.Decl{
		Name: "roi.detect",
		Deps: []string{"stays"},
	}, func(env stage.Env) (*recognize.ROIRecognizer, error) {
		stays, err := p.stays.Get(env.Run)
		if err != nil {
			return nil, err
		}
		return recognize.NewROIRecognizerEnv(env, stays, p.pois, p.cfg.ROI), nil
	})

	dbCodec := stage.Codec[[]trajectory.SemanticTrajectory]{
		Encode: trajectory.WriteSemanticJSON,
		Decode: trajectory.ReadSemanticJSON,
	}
	p.dbCSD = stage.Add(p.graph, stage.Decl{
		Name:     "recognize.CSD",
		Deps:     []string{"csd.build"},
		Artifact: "db-csd",
		File:     ckpt.DBFile("db-csd"),
	}, func(env stage.Env) ([]trajectory.SemanticTrajectory, error) {
		d, err := p.diagram.Get(env.Run)
		if err != nil {
			return nil, err
		}
		return recognize.AnnotateJourneysEnv(env, p.journeys, p.cfg.Chain, recognize.NewCSDRecognizer(d))
	}).Checkpoint(dbCodec)

	p.dbROI = stage.Add(p.graph, stage.Decl{
		Name:     "recognize.ROI",
		Deps:     []string{"roi.detect"},
		Artifact: "db-roi",
		File:     ckpt.DBFile("db-roi"),
	}, func(env stage.Env) ([]trajectory.SemanticTrajectory, error) {
		r, err := p.roi.Get(env.Run)
		if err != nil {
			return nil, err
		}
		return recognize.AnnotateJourneysEnv(env, p.journeys, p.cfg.Chain, r)
	}).Checkpoint(dbCodec)

	return p
}

// Stages returns the introspection records of the declared stage graph
// (name, dependencies, fault site, checkpoint artifact and file, build
// origin, last build error), in declaration order.
func (p *Pipeline) Stages() []stage.Info { return p.graph.Stages() }

// DiagramCtx returns the City Semantic Diagram, building it on first
// use. A canceled ctx aborts an in-flight build with ctx.Err() without
// poisoning the cell — a later call rebuilds. With Config.StageTimeout
// set the build runs under its own stage deadline.
func (p *Pipeline) DiagramCtx(ctx context.Context) (*csd.Diagram, error) {
	return p.diagram.Get(ctx)
}

// UseDiagram installs a pre-built (e.g. deserialized) diagram instead
// of constructing one. It must be called before the first DiagramCtx
// or DatabaseCtx call; afterwards it has no effect.
func (p *Pipeline) UseDiagram(d *csd.Diagram) { p.diagram.Set(d) }

// databaseCell maps a recognizer kind to its database stage.
func (p *Pipeline) databaseCell(kind RecognizerKind) *stage.Cell[[]trajectory.SemanticTrajectory] {
	if kind == RecROI {
		return p.dbROI
	}
	return p.dbCSD
}

// DatabaseCtx returns the annotated semantic-trajectory database for
// the given recognizer kind, building it on first use. Annotation runs
// on the configured worker pool, under its own stage deadline when
// Config.StageTimeout is set (the upstream diagram or ROI detection is
// its own stage with its own deadline). A canceled ctx aborts with
// ctx.Err() and leaves the artifact unbuilt.
func (p *Pipeline) DatabaseCtx(ctx context.Context, kind RecognizerKind) ([]trajectory.SemanticTrajectory, error) {
	return p.databaseCell(kind).Get(ctx)
}

// extractor instantiates the extraction stage for an approach.
func extractor(kind ExtractorKind) pattern.Extractor {
	switch kind {
	case ExtSplitter:
		return pattern.NewSplitter()
	case ExtSDBSCAN:
		return pattern.NewSDBSCAN()
	default:
		return pattern.NewCounterpartCluster()
	}
}

// extract runs one approach's extraction as a one-shot engine stage —
// span "stage.extract.<approach>", the approach's own deadline under
// Config.StageTimeout, and the "core.extract" fault site guarding the
// entry.
func (p *Pipeline) extract(ctx context.Context, a Approach, db []trajectory.SemanticTrajectory, params pattern.Params) ([]pattern.Pattern, error) {
	ps, err := stage.Run(p.graph, ctx,
		stage.Decl{Name: "extract." + a.String(), Site: "core.extract"},
		func(env stage.Env) ([]pattern.Pattern, error) {
			return extractor(a.Extractor).Extract(env, db, params)
		})
	if err == nil && p.trace != nil {
		p.trace.Add(obs.Label("csdm_patterns_mined_total", "approach", a.String()), int64(len(ps)))
	}
	return ps, err
}

// MineCtx runs one approach end to end under the given mining
// parameters: recognition and extraction run on the configured worker pool and a canceled ctx
// aborts with ctx.Err(). With Config.DegradedFallback set, a CSD
// approach whose database fails falls back to the ROI database
// (counted as core.approach.degraded), same as in MineAllCtx.
func (p *Pipeline) MineCtx(ctx context.Context, a Approach, params pattern.Params) ([]pattern.Pattern, error) {
	res := p.mineOne(ctx, a, params, func(kind RecognizerKind) ([]trajectory.SemanticTrajectory, error) {
		return p.DatabaseCtx(ctx, kind)
	})
	return res.Patterns, res.Err
}

// ApproachResult pairs an approach with its mined patterns. A
// MineAllCtx does not abort on the first failing approach, so the
// result carries that approach's own error and degradation state.
type ApproachResult struct {
	Approach Approach
	Patterns []pattern.Pattern
	// Err is the approach's own failure (nil on success). One failed
	// approach never hides the other five.
	Err error
	// Degraded marks a CSD approach that fell back to ROI recognition
	// under Config.DegradedFallback after the CSD artifacts failed.
	Degraded bool
}

// MineAllCtx runs all six approaches under the shared worker budget:
// the shared recognition artifacts are built first, then the six
// extractions fan out over the engine (stage.RunEach) and the results
// come back in Approaches() order for stable experiment output.
//
// Failure is isolated per approach: a failed or timed-out CSD build
// fails (or, with Config.DegradedFallback, degrades) only the three
// CSD approaches, a panicking extraction worker fails only its own
// approach, and everything that succeeded is returned with a nil Err.
// The returned error is non-nil only when the run's own context is
// canceled — the one failure that genuinely applies to every approach.
func (p *Pipeline) MineAllCtx(ctx context.Context, params pattern.Params) ([]ApproachResult, error) {
	// A snapshot of the two annotated databases. Building them exactly
	// once up front keeps the fan-out from racing on the stage cells
	// and — deliberately — from retrying a failed build six times:
	// within one MineAllCtx, a database either exists or is failed.
	dbs := make(map[RecognizerKind][]trajectory.SemanticTrajectory)
	errs := make(map[RecognizerKind]error)
	for _, kind := range []RecognizerKind{RecCSD, RecROI} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dbs[kind], errs[kind] = p.DatabaseCtx(ctx, kind)
	}
	snapshot := func(kind RecognizerKind) ([]trajectory.SemanticTrajectory, error) {
		return dbs[kind], errs[kind]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	as := Approaches()
	opt := p.cfg.ExecOptions()
	p.trace.SetGauge("index.backend", float64(opt.Index))
	exec.Note(p.trace, len(as), exec.Workers(opt.Workers))
	slots := stage.RunEach(p.graph, ctx, len(as), func(i int, _ stage.Env) (ApproachResult, error) {
		return p.mineOne(ctx, as[i], params, snapshot), nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]ApproachResult, len(as))
	for i, s := range slots {
		if s.Err != nil {
			// A slot-level failure: the approach panicked (recovered by
			// the engine into an *exec.PanicError) or was never reached.
			out[i] = ApproachResult{Approach: as[i], Err: s.Err}
			continue
		}
		out[i] = s.V
	}
	for _, r := range out {
		if r.Err != nil {
			p.trace.Add("core.approach.failures", 1)
			var pe *exec.PanicError
			if errors.As(r.Err, &pe) {
				p.trace.Add("exec.panics", 1)
			}
		}
	}
	return out, nil
}

// mineOne runs one approach on the database that database returns for
// its recognizer: MineCtx builds it on demand, a MineAllCtx fan-out reads
// its snapshot. Errors land in the result's Err (panic isolation
// is the engine's job — stage.RunEach recovers a panicking slot into
// its own *exec.PanicError).
func (p *Pipeline) mineOne(ctx context.Context, a Approach, params pattern.Params, database func(RecognizerKind) ([]trajectory.SemanticTrajectory, error)) ApproachResult {
	res := ApproachResult{Approach: a}
	db, err := database(a.Recognizer)
	if err != nil && a.Recognizer == RecCSD && p.cfg.DegradedFallback && ctx.Err() == nil {
		// The degradation ladder's one rung: CSD recognition is gone,
		// ROI recognition still works — mine on the coarser database
		// rather than returning nothing.
		if roiDB, roiErr := database(RecROI); roiErr == nil {
			p.trace.Add("core.approach.degraded", 1)
			if p.trace != nil {
				p.trace.Add(obs.Label("csdm_mine_degraded_total", "approach", a.String()), 1)
			}
			db, err, res.Degraded = roiDB, nil, true
		}
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.Patterns, res.Err = p.extract(ctx, a, db, params)
	return res
}

// Journeys returns the pipeline's journey log.
func (p *Pipeline) Journeys() []trajectory.Journey { return p.journeys }

// POIs returns the pipeline's POI dataset.
func (p *Pipeline) POIs() []poi.POI { return p.pois }

// Describe returns a short human-readable description of the pipeline's
// inputs, for experiment headers.
func (p *Pipeline) Describe() string {
	return fmt.Sprintf("%d POIs, %d journeys", len(p.pois), len(p.journeys))
}
