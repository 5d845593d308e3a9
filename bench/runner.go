package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/stage"
)

// The machine this benchmark is sized for has two cores: the Go
// scheduler and every worker pool are pinned to them, so a report from
// a larger machine measures the same parallelism.
const (
	procs   = 2
	workers = 2
	// setupReps is the least number of times a run repeats its set-up;
	// setup_s is the median.
	setupReps = 7
)

// scale sizes a workload's inputs. Tests run the same code at a tiny
// scale.
type scale struct {
	POIs, Passengers, Days int
	// Cities and Spacing (degrees) lay out the country corpus.
	Cities  int
	Spacing float64
	// Batches delta batches of BatchFrac of all stays each follow the
	// ingest seed of the first half.
	Batches   int
	BatchFrac float64
	// Warmup precedes the serving measurement and is discarded;
	// OpenLoop is the length of each open-loop diagnostic rate.
	Warmup   time.Duration
	OpenLoop time.Duration
	// SetupSpan is how long set-up keeps repeating after setupReps. A
	// set-up of a few milliseconds, repeated only setupReps times, sits
	// inside one burst of the machine's noise; repeated for SetupSpan,
	// its median does not.
	SetupSpan time.Duration
}

func fullScale() scale {
	return scale{
		POIs: 3000, Passengers: 600, Days: 14,
		Cities: 4, Spacing: 0.15,
		Batches: 200, BatchFrac: 0.0025,
		Warmup: 2 * time.Second, OpenLoop: 2 * time.Second,
		SetupSpan: 2 * time.Second,
	}
}

// options is one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	// workDir holds the run's files (snapshots, stay stores); it is
	// created fresh and removed when the run ends.
	workDir string
}

// pipelineConfig is the system configuration every workload runs
// with: defaults, pinned to the machine's two workers.
func pipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// env is a stage environment on the pinned worker budget, recording on
// tr (nil for untraced calls).
func env(ctx context.Context, tr *obs.Trace) stage.Env {
	return stage.Env{Ctx: ctx, Run: ctx, Trace: tr, Opt: exec.Options{Workers: workers, Index: index.KindGrid}}
}

// mineParams are the extraction parameters of the bench city: the
// paper's normal condition with σ scaled to the city's size.
func mineParams() pattern.Params {
	p := pattern.DefaultParams()
	p.Sigma = 20
	return p
}

func csdParams() csd.Params { return pipelineConfig().CSD }

// runner carries one workload run.
type runner struct {
	o   options
	ctx context.Context
	rep *report
}

// phase is one stretch of the measurement window.
type phase struct {
	traced   bool
	tr       *tracer
	deadline time.Time
	// ops are the latencies of the workload's operation, in ms.
	ops []float64
	// layers holds one flattened program trace per traced operation.
	layers []layerSample
	// mem0/mem1 bracket the phase for allocation and GC-pause counts.
	mem0, mem1 runtime.MemStats
	// rssw samples peak memory at operation boundaries; rss holds its
	// windows' peaks in MB.
	rssw rssWindows
	rss  []float64
}

// record adds one operation that took d.
func (ph *phase) record(d time.Duration) {
	ph.ops = append(ph.ops, ms(d))
	ph.rssw.boundary()
}

// over reports whether the phase's time is up.
func (ph *phase) over() bool { return !time.Now().Before(ph.deadline) }

// obsTrace returns a fresh program trace for one traced operation (nil
// when the phase is untraced).
func (ph *phase) obsTrace() *obs.Trace {
	if !ph.traced {
		return nil
	}
	return obs.New()
}

// setup runs fn at least setupReps times and until the scale's
// SetupSpan has passed, recording the median as setup_s. Each call
// replaces the previous call's state; the workload measures what the
// last one built.
func (r *runner) setup(fn func() error) error {
	var ts []float64
	for start := time.Now(); len(ts) < setupReps || time.Since(start) < r.o.scale.SetupSpan; {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.rep.set("setup_s", "s", median(ts), len(ts))
	return nil
}

// measure runs body over the measurement window. Untraced, that is one
// phase of the whole window. Traced, an untraced half comes first and a
// traced half second; the difference between their fastest operations
// is the tracing overhead. It records the end-to-end metrics and the
// runtime counters from the untraced phase, and the layer metrics the
// program's own traces carry from the traced one.
//
// The end-to-end latency is the fastest operation: on a shared machine
// whose speed drifts by ±15% over minutes, a median latency moves with
// the machine, while the fastest operation moves with the code. The
// median and the 90th percentile are kept as the per-layer op.p50_ms
// and op.p90_ms. Peak memory is the median over windows of whole
// operations, since one window's peak depends on when the GC ran.
func (r *runner) measure(body func(ph *phase) error) (un, tr *phase, err error) {
	window := time.Duration(r.o.seconds * float64(time.Second))
	run := func(d time.Duration, traced bool) (*phase, error) {
		ph := &phase{traced: traced}
		if traced {
			ph.tr = newTracer()
		}
		runtime.GC()
		runtime.ReadMemStats(&ph.mem0)
		ph.deadline = time.Now().Add(d)
		ph.rssw.open()
		err := body(ph)
		var rerr error
		ph.rss, rerr = ph.rssw.close()
		if err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ph.mem1)
		if len(ph.ops) == 0 {
			return nil, fmt.Errorf("no operation completed in %v", d)
		}
		return ph, nil
	}
	if !r.o.trace {
		if un, err = run(window, false); err != nil {
			return nil, nil, err
		}
	} else {
		if un, err = run(window/2, false); err != nil {
			return nil, nil, err
		}
		if tr, err = run(window/2, true); err != nil {
			return nil, nil, err
		}
	}

	n := len(un.ops)
	r.rep.set("op_min_ms", "ms", slices.Min(un.ops), n)
	r.rep.set("peak_rss_mb", "MB", median(un.rss), len(un.rss))
	r.rep.set("op.p50_ms", "ms", median(un.ops), n)
	r.rep.set("op.p90_ms", "ms", quantile(un.ops, 0.9), n)
	r.rep.set("runtime.allocs_per_op", "count", float64(un.mem1.Mallocs-un.mem0.Mallocs)/float64(n), n)
	r.rep.set("runtime.gc_pause_ms", "ms", float64(un.mem1.PauseTotalNs-un.mem0.PauseTotalNs)/1e6/float64(n), n)
	if tr != nil {
		r.rep.set("trace.overhead_ms", "ms", slices.Min(tr.ops)-slices.Min(un.ops), len(tr.ops))
		r.layerMetrics(tr.layers)
		r.rep.Spans = tr.tr.finish()
	}
	return un, tr, nil
}

// layerMetrics turns the program's per-operation traces into the layer
// metrics that come straight from its spans and counters: the median
// over operations of each metric's summed keys.
func (r *runner) layerMetrics(samples []layerSample) {
	for _, m := range traceMetrics {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			for _, k := range m.keys {
				vals[i] += s[k]
			}
		}
		r.rep.set(m.name, m.unit, median(vals), len(vals))
	}
	sum := func(key string) (t float64) {
		for _, s := range samples {
			t += s[key]
		}
		return t
	}
	if c := sum("extract.CounterpartCluster.candidates"); c > 0 {
		r.rep.set("pattern.yield", "ratio", sum("extract.CounterpartCluster.patterns")/c, len(samples))
	}
	known := sum("recognize.CSD.stays.annotated")
	if all := known + sum("recognize.CSD.stays.unknown"); all > 0 {
		r.rep.set("recognize.known_ratio", "ratio", known/all, len(samples))
	}
}

// indexMetrics times building each spatial-index backend over the
// workload's stays and the R3σ WithinAppend query around every POI —
// the access pattern of the popularity model (Eq. 2–3).
func (r *runner) indexMetrics(pois []poi.POI, stays []geo.Point) {
	radius := csdParams().R3Sigma
	for _, kind := range []index.Kind{index.KindGrid, index.KindKDTree, index.KindRTree} {
		t0 := time.Now()
		idx := index.New(kind, stays, radius)
		build := time.Since(t0)
		var buf []int
		t0 = time.Now()
		for _, p := range pois {
			buf = idx.WithinAppend(p.Location, radius, buf[:0])
		}
		within := time.Since(t0)
		r.rep.set("index."+kind.String()+".build_ms", "ms", ms(build), 1)
		r.rep.set("index."+kind.String()+".within_us", "us", float64(within.Microseconds())/float64(max(len(pois), 1)), len(pois))
	}
}

// finish fills every per-layer metric the workload's path does not
// touch with zero, so a traced report always names the full layer set.
func (r *runner) finish() {
	if r.o.trace {
		for _, d := range layerDefs {
			if _, ok := r.rep.Metrics[d.name]; !ok {
				r.rep.set(d.name, d.unit, 0, 0)
			}
		}
	}
	r.rep.Correct = len(r.rep.Errors) == 0
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(ctx context.Context, o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("create work dir: %w", err)
	}
	defer os.RemoveAll(o.workDir)
	r := &runner{o: o, ctx: ctx, rep: &report{
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Machine:  thisMachine(),
		Metrics:  map[string]metric{},
		Digests:  map[string]string{},
	}}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.finish()
	return r.rep, nil
}
