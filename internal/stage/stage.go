// Package stage is the pipeline's stage-graph engine: one execution
// environment and one middleware stack for every stage of the Pervasive
// Miner, carrying the cross-cutting concerns (trace, worker options,
// per-stage deadlines, fault sites, checkpoints, lazy cells) so no stage
// signature has to.
//
// A stage is a named func(Env) (T, error). Env carries everything a
// stage body needs — the stage-scoped context, the run's context for
// launching dependencies, the telemetry trace and span, and the
// execution-layer options — so adding a cross-cutting concern means
// adding one middleware here, not another parameter to six signatures.
//
// The engine composes a fixed middleware stack around every body, in
// this order (outermost first):
//
//	span       a "stage.<name>" telemetry span wrapping the whole run
//	deadline   the per-stage timeout (Config.StageTimeout), classifying
//	           an overrun as a stage timeout distinct from a run cancel
//	fault      the stage's declared fault-injection site (Decl.Site)
//	checkpoint resume-from / save-to the configured Store for stages
//	           that declare an artifact (Decl.Artifact + Decl.File)
//
// Each engaged middleware opens a child span, so the stack's order is
// observable on any trace snapshot — and pinned by the engine tests.
//
// Declared stages (Add) are memoized in retry-safe once-cells: a build
// that fails — a canceled context, an injected fault, a timeout — never
// poisons the cell; the next Get retries. One-shot stages (Run) go
// through the same middleware without memoization, and RunEach fans a
// batch of them out over the bounded worker pool with per-slot panic
// isolation, as core.MineAllCtx needs for its six approaches.
package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/obs"
)

// Env is the execution environment a stage body runs in. It bundles
// the values a body would otherwise take as extra parameters (ctx,
// *obs.Trace, exec.Options).
type Env struct {
	// Ctx is the stage-scoped context: the run's context with the
	// per-stage deadline applied. Bodies poll and pass down this one.
	Ctx context.Context
	// Run is the enclosing run's context, without this stage's
	// deadline. Dependency stages launched from a body (Cell.Get) take
	// Run, so each stage gets its own full deadline instead of
	// inheriting the remainder of its caller's.
	Run context.Context
	// Span is the stage's telemetry span (nil when tracing is off).
	Span *obs.Span
	// Trace is the run's telemetry sink. All obs methods are nil-safe.
	Trace *obs.Trace
	// Opt carries the execution-layer knobs (worker budget, spatial
	// index backend).
	Opt exec.Options
}

// StartSpan opens a child span under the stage's span, or a root span
// on the trace when the Env carries no engine span (an Env built by
// hand rather than by the engine).
func (e Env) StartSpan(name string) *obs.Span {
	if e.Span != nil {
		return e.Span.Start(name)
	}
	return e.Trace.Start(name)
}

// Background returns a minimal environment — background contexts, no
// telemetry, default execution options — for callers that run a stage
// body outside the engine, and for tests.
func Background() Env {
	return Env{Ctx: context.Background(), Run: context.Background()}
}

// Func is a stage body.
type Func[T any] func(Env) (T, error)

// Store abstracts checkpoint persistence for stages that declare an
// artifact. *ckpt.Manager implements it; a nil-pointer store is valid
// (every Load misses, every Save no-ops).
type Store interface {
	// Load decodes the named artifact from file via read, reporting
	// whether a valid checkpoint was found.
	Load(artifact, file string, read func(io.Reader) error) bool
	// Save atomically persists the named artifact to file via write.
	Save(artifact, file string, write func(io.Writer) error) error
}

// Config is the graph's cross-cutting configuration, re-read on every
// stage run so late wiring (SetTrace before the first build) is seen.
type Config struct {
	// Trace is the telemetry sink (nil disables tracing).
	Trace *obs.Trace
	// Opt is the execution-layer option bundle every stage receives.
	Opt exec.Options
	// StageTimeout bounds each stage with its own deadline; zero
	// disables the deadline middleware.
	StageTimeout time.Duration
	// Store enables the checkpoint middleware for stages declaring an
	// artifact; nil disables it.
	Store Store
}

// Decl is the static description of a stage: its name, documented
// dependencies, optional fault site, and optional checkpoint artifact.
type Decl struct {
	// Name identifies the stage in spans ("stage.<name>"), timeout
	// errors and introspection.
	Name string
	// Deps names the stages this one pulls via Cell.Get, for graph
	// introspection. Add panics on a dep that is not yet declared.
	Deps []string
	// Site is the fault-injection site guarding the body ("" for none).
	Site string
	// Artifact names the stage's checkpoint artifact ("" for none);
	// File is the filename inside the store. Declaring them here is
	// what keeps the CLI and the checkpoint layer from each holding
	// their own copy of the name→file mapping.
	Artifact string
	File     string
}

// Origin reports how a cell's value materialized.
type Origin int

const (
	// OriginUnbuilt means the cell has no value yet.
	OriginUnbuilt Origin = iota
	// OriginBuilt means the body ran (and, if checkpointed, saved).
	OriginBuilt
	// OriginResumed means the value was loaded from the Store.
	OriginResumed
	// OriginInstalled means Set installed a pre-built value.
	OriginInstalled
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginBuilt:
		return "built"
	case OriginResumed:
		return "resumed"
	case OriginInstalled:
		return "installed"
	default:
		return "unbuilt"
	}
}

// Info is the introspection record of one declared stage.
type Info struct {
	Name     string
	Deps     []string
	Site     string
	Artifact string
	File     string
	Origin   Origin
	// Err is the stage's most recent build error (nil after a success;
	// failed builds are retried, so this is diagnostic, not sticky).
	Err error
}

// Graph owns the stage declarations and the shared configuration.
type Graph struct {
	cfg func() Config

	mu      sync.Mutex
	names   map[string]bool
	runners map[string]func(context.Context) error
	cells   []func() Info
}

// NewGraph returns an empty graph. cfg is re-invoked on every stage
// run, so the owner can wire the trace or checkpoint store after
// construction (but before the first build).
func NewGraph(cfg func() Config) *Graph {
	return &Graph{
		cfg:     cfg,
		names:   make(map[string]bool),
		runners: make(map[string]func(context.Context) error),
	}
}

// runner returns the named stage's build function (nil for one-shot
// stages, which have no cell to build).
func (g *Graph) runner(name string) func(context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runners[name]
}

// Stages returns the introspection records of every declared stage, in
// declaration order.
func (g *Graph) Stages() []Info {
	g.mu.Lock()
	cells := append([]func() Info(nil), g.cells...)
	g.mu.Unlock()
	out := make([]Info, len(cells))
	for i, f := range cells {
		out[i] = f()
	}
	return out
}

// Cell is a declared, memoized stage: a build-once artifact holder run
// through the engine's middleware. Unlike sync.Once, a failed build
// does not poison the cell — the next Get retries — so a pipeline
// survives an aborted warm-up, an injected fault, or a stage timeout.
type Cell[T any] struct {
	g     *Graph
	decl  Decl
	fn    Func[T]
	codec *Codec[T]

	mu      sync.Mutex
	done    bool
	v       T
	origin  Origin
	lastErr error
}

// Codec (de)serializes a cell's artifact for the checkpoint middleware.
type Codec[T any] struct {
	Encode func(io.Writer, T) error
	Decode func(io.Reader) (T, error)
}

// Add declares a memoized stage on the graph. It panics on a duplicate
// name or an undeclared dependency — both are wiring bugs.
func Add[T any](g *Graph, decl Decl, fn Func[T]) *Cell[T] {
	g.mu.Lock()
	defer g.mu.Unlock()
	if decl.Name == "" || g.names[decl.Name] {
		panic(fmt.Sprintf("stage: duplicate or empty stage name %q", decl.Name))
	}
	for _, d := range decl.Deps {
		if !g.names[d] {
			panic(fmt.Sprintf("stage: %s depends on undeclared stage %q", decl.Name, d))
		}
	}
	g.names[decl.Name] = true
	c := &Cell[T]{g: g, decl: decl, fn: fn}
	g.cells = append(g.cells, c.info)
	g.runners[decl.Name] = func(ctx context.Context) error {
		_, err := c.Get(ctx)
		return err
	}
	return c
}

// Checkpoint attaches a codec, enabling the checkpoint middleware for
// this cell whenever the graph's Store is configured.
func (c *Cell[T]) Checkpoint(codec Codec[T]) *Cell[T] {
	c.codec = &codec
	return c
}

func (c *Cell[T]) info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Info{
		Name:     c.decl.Name,
		Deps:     c.decl.Deps,
		Site:     c.decl.Site,
		Artifact: c.decl.Artifact,
		File:     c.decl.File,
		Origin:   c.origin,
		Err:      c.lastErr,
	}
}

// Origin reports how the cell's current value materialized
// (OriginUnbuilt when it has none).
func (c *Cell[T]) Origin() Origin {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.origin
}

// Err returns the cell's most recent build error (nil after a success).
func (c *Cell[T]) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Get returns the cell's value, building it through the middleware
// stack on first use. The cell's lock is held across the build, so
// concurrent callers wait for one build instead of duplicating it. A
// failed build returns its error without memoizing — the next Get
// retries.
func (c *Cell[T]) Get(ctx context.Context) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.v, nil
	}
	v, origin, err := run(c.g, ctx, c.decl, c.codec, c.fn)
	c.lastErr = err
	if err != nil {
		var zero T
		return zero, err
	}
	c.v, c.done, c.origin = v, true, origin
	return c.v, nil
}

// Set installs v (e.g. a deserialized artifact) unless the cell is
// already built; the checkpoint middleware never overwrites an
// installed value.
func (c *Cell[T]) Set(v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		c.v, c.done, c.origin = v, true, OriginInstalled
	}
}

// Run executes a one-shot stage — same middleware stack, no
// memoization — for dynamic work like per-approach extraction, where
// the stage identity depends on runtime parameters.
func Run[T any](g *Graph, ctx context.Context, decl Decl, fn Func[T]) (T, error) {
	v, _, err := run[T](g, ctx, decl, nil, fn)
	return v, err
}

// run is the engine core: one stage execution through the composed
// middleware stack (span → deadline → fault → checkpoint → body).
//
// Declared dependencies build first, before any of this stage's
// middleware engages: each dependency is its own stage with its own
// full deadline, and a dependency's failure is returned as-is — the
// stage never relabels someone else's error as its own timeout.
func run[T any](g *Graph, ctx context.Context, decl Decl, codec *Codec[T], fn Func[T]) (T, Origin, error) {
	cfg := g.cfg()
	origin := OriginBuilt
	for _, dep := range decl.Deps {
		if r := g.runner(dep); r != nil {
			if err := r(ctx); err != nil {
				var zero T
				return zero, origin, err
			}
		}
	}

	// Innermost: checkpoint (resume-or-build-and-save).
	body := fn
	if codec != nil {
		body = func(env Env) (T, error) {
			if cfg.Store == nil || decl.Artifact == "" {
				return fn(env)
			}
			sp := env.StartSpan("checkpoint")
			defer sp.End()
			env.Span = sp
			var v T
			var derr error
			if cfg.Store.Load(decl.Artifact, decl.File, func(r io.Reader) error {
				v, derr = codec.Decode(r)
				return derr
			}) {
				origin = OriginResumed
				return v, nil
			}
			v, err := fn(env)
			if err != nil {
				return v, err
			}
			if serr := cfg.Store.Save(decl.Artifact, decl.File, func(w io.Writer) error {
				return codec.Encode(w, v)
			}); serr != nil {
				var zero T
				return zero, fmt.Errorf("stage %s: checkpoint: %w", decl.Name, serr)
			}
			return v, nil
		}
	}

	// Fault-site injection.
	if decl.Site != "" {
		next := body
		body = func(env Env) (T, error) {
			sp := env.StartSpan("fault")
			defer sp.End()
			env.Span = sp
			if err := fault.Hit(decl.Site); err != nil {
				var zero T
				return zero, err
			}
			return next(env)
		}
	}

	// Per-stage deadline: an overrun of the stage's own deadline (run
	// context still live) is wrapped with the stage name and counted,
	// so callers can tell "this stage was too slow" from "the whole
	// run was canceled".
	if cfg.StageTimeout > 0 {
		next := body
		body = func(env Env) (T, error) {
			sp := env.StartSpan("deadline")
			defer sp.End()
			env.Span = sp
			sctx, cancel := context.WithTimeout(env.Ctx, cfg.StageTimeout)
			defer cancel()
			env.Ctx = sctx
			v, err := next(env)
			if err != nil && env.Run.Err() == nil && errors.Is(sctx.Err(), context.DeadlineExceeded) {
				if cfg.Trace != nil {
					cfg.Trace.Add(obs.Label("csdm_stage_timeouts_total", "stage", decl.Name), 1)
				}
				var zero T
				return zero, fmt.Errorf("stage %s exceeded its %v deadline: %w", decl.Name, cfg.StageTimeout, err)
			}
			return v, err
		}
	}

	// Outermost: the stage span, plus the per-stage duration histogram
	// and error counter. Both are label-keyed metrics in the trace's
	// Registry, so /metrics exposes them; the whole block is guarded
	// on cfg.Trace so untraced runs pay nothing (the labeled-name
	// construction allocates), and it opens no child spans — the span
	// tree stays exactly the middleware chain the engine tests pin.
	sp := cfg.Trace.Start("stage." + decl.Name)
	defer sp.End()
	env := Env{Ctx: ctx, Run: ctx, Span: sp, Trace: cfg.Trace, Opt: cfg.Opt}
	var started time.Time
	if cfg.Trace != nil {
		started = time.Now()
	}
	v, err := body(env)
	if cfg.Trace != nil {
		cfg.Trace.Observe(obs.Label("csdm_stage_duration_seconds", "stage", decl.Name), time.Since(started).Seconds())
		if err != nil {
			cfg.Trace.Add(obs.Label("csdm_stage_errors_total", "stage", decl.Name), 1)
		}
	}
	if err != nil {
		var zero T
		return zero, origin, err
	}
	return v, origin, nil
}

// Result is one RunEach slot: the stage's value or its own failure.
type Result[T any] struct {
	V   T
	Err error
}

// ErrNotRun marks a fan-out slot whose task never executed because the
// pool aborted first (cancellation or an injected pool fault).
var ErrNotRun = errors.New("stage: not run: fan-out aborted early")

// RunEach fans n dynamic stage instances out over the graph's bounded
// worker pool, with the isolation semantics a MineAll needs: each
// slot's failure — error or panic — lands in its own Result and never
// stops the siblings; results come back in index order for any worker
// budget; slots the pool never reached (aborted by cancellation) read
// ErrNotRun instead of an empty success. A panicking slot yields an
// *exec.PanicError carrying the panic site's stack.
func RunEach[T any](g *Graph, ctx context.Context, n int, fn func(i int, env Env) (T, error)) []Result[T] {
	cfg := g.cfg()
	out := make([]Result[T], n)
	for i := range out {
		out[i].Err = ErrNotRun
	}
	pfErr := exec.ParallelFor(ctx, cfg.Opt.Workers, n, func(i int) error {
		v, err := func() (v T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = exec.NewPanicError(r)
				}
			}()
			return fn(i, Env{Ctx: ctx, Run: ctx, Trace: cfg.Trace, Opt: cfg.Opt})
		}()
		out[i] = Result[T]{V: v, Err: err}
		return nil
	})
	if pfErr != nil {
		for i := range out {
			if errors.Is(out[i].Err, ErrNotRun) {
				out[i].Err = fmt.Errorf("%w: %w", ErrNotRun, pfErr)
			}
		}
	}
	return out
}
