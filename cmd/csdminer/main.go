// Command csdminer runs the Pervasive Miner pipeline over a POI file
// and a taxi-journey log (the formats genworkload emits).
//
// Usage:
//
//	csdminer -pois pois.csv -journeys journeys.csv <subcommand> [flags]
//
// Subcommands:
//
//	diagram    build the City Semantic Diagram and report its units
//	recognize  annotate the journeys and write semantic trajectories
//	mine       extract fine-grained patterns and report them
//	ingest     stream a journey file into the diagram as delta batches
//
// ingest is the streaming path: the base diagram is seeded from
// -journeys, then -ingest's journey file is applied in -delta-batch
// sized batches through the incremental maintainer. Every applied batch
// is bit-identical to a full rebuild over the union, persisted as its
// own generation snapshot (diagram.<gen>.csdf) in the -checkpoint
// directory (required), and published by atomically flipping the
// CURRENT pointer — which a live csdserve -watch follows. Old
// generations beyond -keep-generations are pruned. stdout carries one
// machine-parseable line per applied batch.
//
// Progress and timing messages go to stderr; stdout carries only the
// machine-parseable results. -workers bounds the parallelism of every
// pipeline stage (1 = sequential; results are identical either way)
// and -index selects the spatial-index backend (grid, kdtree, rtree).
// -trace prints the per-stage telemetry report to stderr after the
// run; -debug-addr serves net/http/pprof, expvar (the runtime's
// memstats), /debug/trace (the span tree and metrics as JSON),
// /debug/stages (the stage graph with each artifact's build origin)
// and /metrics (the same metrics in Prometheus text format) for
// inspecting a long run in flight — see internal/obs/obshttp.
// -metrics-out writes a final Prometheus-format metrics dump to a
// file after the run; -linger keeps the debug server alive after the
// run so a scraper can collect the final state.
//
// Robustness flags: -lenient skips malformed input rows (bounded by
// -max-bad-rows) instead of failing the load; -checkpoint persists
// each completed stage to a directory so an interrupted run resumes
// past finished work; -stage-timeout bounds every pipeline stage with
// its own deadline. The exit code classifies failures: 2 for usage
// errors, 3 for input errors, 4 for pipeline failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/core"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/index"
	"csdm/internal/load"
	"csdm/internal/metrics"
	"csdm/internal/obs"
	"csdm/internal/obs/obshttp"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/shard"
	"csdm/internal/stage"
	"csdm/internal/trajectory"
)

// The exit codes callers and scripts can branch on.
const (
	exitUsage    = 2 // bad flags, unknown subcommand or approach
	exitInput    = 3 // unreadable or malformed input data
	exitPipeline = 4 // a pipeline stage failed
)

// progress reports loading/timing status on stderr, keeping stdout
// machine-parseable.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// die reports err and exits with the given classification code.
func die(code int, err error) {
	log.Print(err)
	os.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("csdminer: ")
	var (
		poiPath     = flag.String("pois", "pois.csv", "POI CSV file")
		journeyPath = flag.String("journeys", "journeys.csv", "journey CSV file")
		approach    = flag.String("approach", "CSD-PM", "mining approach (CSD-PM, ROI-PM, CSD-Splitter, ROI-Splitter, CSD-SDBSCAN, ROI-SDBSCAN)")
		sigma       = flag.Int("sigma", 50, "support threshold σ")
		rho         = flag.Float64("rho", 0.002, "density threshold ρ (points/m²)")
		deltaT      = flag.Duration("deltat", time.Hour, "temporal constraint δ_t")
		top         = flag.Int("top", 20, "patterns to print (mine)")
		out         = flag.String("out", "semantic_trajectories.json", "output file (recognize)")
		saveDiagram = flag.String("save-diagram", "", "write the built City Semantic Diagram to this file")
		savePattern = flag.String("save-patterns", "", "write the mined pattern set to this file (mine; the format csdserve -patterns serves)")
		loadDiagram = flag.String("load-diagram", "", "reuse a diagram previously written with -save-diagram")
		traceFlag   = flag.Bool("trace", false, "print the per-stage telemetry report to stderr")
		debugAddr   = flag.String("debug-addr", "", "serve pprof, expvar, /debug/trace, /debug/stages and /metrics on this address (e.g. localhost:6060)")
		workers     = flag.Int("workers", 0, "worker budget for parallel pipeline stages (0 = all cores, 1 = sequential)")
		indexKind   = flag.String("index", "grid", "spatial index backend (grid, kdtree, rtree)")
		lenient     = flag.Bool("lenient", false, "skip malformed input rows instead of failing the load")
		maxBadRows  = flag.Int("max-bad-rows", 0, "with -lenient, fail after skipping this many rows per file (0 = unlimited)")
		checkpoint  = flag.String("checkpoint", "", "persist completed stages to this directory and resume from it")
		stageTO     = flag.Duration("stage-timeout", 0, "per-stage deadline (0 = none)")
		degraded    = flag.Bool("degraded-fallback", false, "fall back to ROI recognition when the CSD build fails")
		faultSpec   = flag.String("fault", "", "fault-injection spec site:kind:trigger[,...] (testing only)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection rules (testing only)")
		metricsOut  = flag.String("metrics-out", "", "write the final Prometheus-format metrics dump to this file")
		linger      = flag.Duration("linger", 0, "with -debug-addr, keep the process (and its debug server) alive this long after the run")
		ingestPath  = flag.String("ingest", "", "journey CSV to stream into the diagram as deltas (ingest)")
		deltaBatch  = flag.Int("delta-batch", 500, "journeys per delta batch (ingest)")
		keepGens    = flag.Int("keep-generations", 0, "prune generation snapshots beyond the newest N (0 = keep all; ingest)")
		shardSpec   = flag.String("shards", "", "build the diagram geo-sharded as RxC tiles (e.g. 3x3): per-tile popularity over halo-loaded stays, bit-identical to the monolithic build")
		shardWk     = flag.Int("shard-workers", 0, "with -shards, shard fan-out bound (0 = all cores); peak resident stays ≈ shard-workers × largest halo load")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: csdminer [flags] diagram|recognize|mine|ingest")
		os.Exit(exitUsage)
	}
	cmd := flag.Arg(0)

	if in, err := fault.Parse(*faultSpec, *faultSeed); err != nil {
		die(exitUsage, err)
	} else if in != nil {
		fault.Activate(in)
		progress("fault injection active: %s (seed %d)", *faultSpec, *faultSeed)
	}

	// Telemetry wiring. The Trace exists whenever any telemetry consumer
	// does, and its Registry is the one metrics store every view reads:
	// the -trace report, /debug/trace, /metrics and -metrics-out. When a
	// scrape surface (-debug-addr) or a final dump (-metrics-out) is on,
	// the execution, index and fault layers and the runtime sampler
	// write that Registry too, so every view carries the whole pipeline:
	// stage durations, task latencies, sampled index queries,
	// checkpoint/fault/load counters and process-health gauges.
	var tr *obs.Trace
	var reg *obs.Registry
	if *traceFlag || *debugAddr != "" || *metricsOut != "" {
		tr = obs.New()
	}
	if *debugAddr != "" || *metricsOut != "" {
		reg = tr.Registry()
		exec.SetMetrics(reg)
		index.SetMetrics(reg, 0)
		fault.SetMetrics(reg)
		stopSampler := obs.StartRuntimeSampler(reg, time.Second)
		defer stopSampler()
	}
	// stagesPipe feeds /debug/stages once the pipeline exists; the
	// debug server starts before input loading so a hung load is
	// already inspectable.
	var stagesPipe atomic.Pointer[core.Pipeline]
	if *debugAddr != "" {
		obshttp.Serve(*debugAddr, obshttp.Options{
			Trace:    tr,
			Registry: reg,
			Stages: func() []stage.Info {
				if p := stagesPipe.Load(); p != nil {
					return p.Stages()
				}
				return nil
			},
			Logf: progress,
		})
	}

	cfg := core.DefaultConfig()
	if *workers != 0 {
		cfg.Workers = *workers
	}
	kind, err := index.ParseKind(*indexKind)
	if err != nil {
		die(exitUsage, err)
	}
	cfg.Index = kind
	cfg.StageTimeout = *stageTO
	cfg.DegradedFallback = *degraded

	var mgr *ckpt.Manager
	if *checkpoint != "" {
		if mgr, err = ckpt.New(*checkpoint, tr); err != nil {
			die(exitPipeline, err)
		}
	}

	// Sharded mode: decide up front whether this run builds the diagram
	// geo-sharded, because the `diagram` subcommand can then stream the
	// journey file straight into an out-of-core stay store and never
	// materialize the journeys at all.
	shardRows, shardCols := 0, 0
	if *shardSpec != "" {
		if shardRows, shardCols, err = shard.ParseTiling(*shardSpec); err != nil {
			die(exitUsage, err)
		}
		if cmd == "ingest" {
			die(exitUsage, fmt.Errorf("-shards does not apply to ingest (the incremental maintainer owns its own build)"))
		}
		if *loadDiagram != "" {
			die(exitUsage, fmt.Errorf("-shards and -load-diagram are mutually exclusive"))
		}
	}
	shardCSD := *shardSpec != ""
	if cmd == "mine" && shardCSD {
		chosen, err := core.ApproachByName(*approach)
		if err != nil {
			die(exitUsage, err)
		}
		// ROI-recognizer approaches never touch the diagram; don't
		// build one shardedly just to ignore it.
		shardCSD = chosen.Recognizer == core.RecCSD
	}

	opts := load.Options{Lenient: *lenient, MaxBadRows: *maxBadRows, Trace: tr}
	var pois []poi.POI
	var journeys []trajectory.Journey
	var staySrc shard.StaySource
	if shardCSD && cmd == "diagram" {
		// Out-of-core path: POIs in memory (they parameterize the
		// plan), stays spilled to a columnar store that shards load by
		// halo rectangle.
		var store *shard.StayStore
		var cleanup func()
		pois, store, cleanup, err = loadShardInputs(*poiPath, *journeyPath, opts)
		if err != nil {
			die(exitInput, err)
		}
		defer cleanup()
		staySrc = store
	} else {
		pois, journeys, err = loadInputs(*poiPath, *journeyPath, opts)
		if err != nil {
			die(exitInput, err)
		}
		if shardCSD {
			// recognize/mine need the journeys resident anyway; the
			// sharded build reads their stays in place.
			staySrc = shard.MemStays(core.Stays(journeys))
		}
	}
	pipe := core.NewPipeline(pois, journeys, cfg)
	pipe.SetTrace(tr)
	stagesPipe.Store(pipe)
	if *loadDiagram != "" {
		d, err := csd.ReadFile(*loadDiagram)
		if err != nil {
			die(exitInput, err)
		}
		pipe.UseDiagram(d)
		progress("loaded diagram with %d units from %s", len(d.Units), *loadDiagram)
	}
	if shardCSD {
		d, err := buildSharded(tr, cfg, pois, staySrc, shardRows, shardCols, *shardWk, mgr)
		if err != nil {
			die(exitPipeline, err)
		}
		pipe.UseDiagram(d)
	}

	switch cmd {
	case "diagram":
		if err := prepare(pipe, mgr, true); err != nil {
			die(exitPipeline, err)
		}
		if err := runDiagram(pipe, *saveDiagram); err != nil {
			die(exitPipeline, err)
		}
	case "recognize":
		if err := prepare(pipe, mgr, true, core.RecCSD); err != nil {
			die(exitPipeline, err)
		}
		if err := runRecognize(pipe, *out); err != nil {
			die(exitPipeline, err)
		}
	case "mine":
		chosen, err := core.ApproachByName(*approach)
		if err != nil {
			die(exitUsage, err)
		}
		params := pattern.DefaultParams()
		params.Sigma = *sigma
		params.Rho = *rho
		params.DeltaT = *deltaT
		if err := prepare(pipe, mgr, chosen.Recognizer == core.RecCSD, chosen.Recognizer); err != nil {
			die(exitPipeline, err)
		}
		if err := runMine(pipe, chosen, params, *top, *savePattern); err != nil {
			die(exitPipeline, err)
		}
	case "ingest":
		if *ingestPath == "" {
			die(exitUsage, fmt.Errorf("ingest requires -ingest <stream.csv>"))
		}
		if mgr == nil {
			die(exitUsage, fmt.Errorf("ingest requires -checkpoint (generation snapshots live there)"))
		}
		if *deltaBatch < 1 {
			die(exitUsage, fmt.Errorf("-delta-batch must be at least 1, got %d", *deltaBatch))
		}
		if *keepGens < 0 {
			die(exitUsage, fmt.Errorf("-keep-generations must not be negative, got %d", *keepGens))
		}
		if err := runIngest(pipe, mgr, *ingestPath, *deltaBatch, *keepGens, opts); err != nil {
			die(exitPipeline, err)
		}
	default:
		die(exitUsage, fmt.Errorf("unknown subcommand %q", cmd))
	}

	if *traceFlag {
		fmt.Fprintln(os.Stderr, "--- stage report ---")
		tr.WriteText(os.Stderr)
	}
	if *metricsOut != "" {
		if err := ckpt.WriteAtomic(*metricsOut, reg.WritePrometheus); err != nil {
			die(exitPipeline, fmt.Errorf("write metrics %s: %w", *metricsOut, err))
		}
		progress("metrics written to %s", *metricsOut)
	}
	if *debugAddr != "" && *linger > 0 {
		progress("run complete; debug server lingering for %s (SIGINT/SIGTERM exits now)", *linger)
		// Signal-aware wait: a plain time.Sleep would make the process
		// uninterruptible for the whole linger window — Ctrl-C or a
		// supervisor's SIGTERM must exit promptly once the run's work
		// (including -metrics-out) is already on disk.
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		select {
		case <-time.After(*linger):
		case sig := <-sigs:
			progress("%s received during linger; exiting", sig)
		}
	}
}

// prepare runs the shared stages the subcommand needs eagerly under
// the checkpoint policy. The sequencing itself — try the checkpoint
// directory, rebuild on a miss or a corrupt artifact, persist after
// building — lives in the stage engine's checkpoint middleware now;
// this function only attaches the store, forces the stages the
// subcommand needs, and reports each artifact's origin. With no
// manager the stages stay lazy and nothing is persisted.
func prepare(pipe *core.Pipeline, m *ckpt.Manager, needDiagram bool, kinds ...core.RecognizerKind) error {
	if m == nil {
		return nil
	}
	pipe.SetCheckpoints(m)
	ctx := context.Background()
	for _, k := range kinds {
		if k == core.RecCSD {
			needDiagram = true
		}
	}
	if needDiagram {
		d, err := pipe.DiagramCtx(ctx)
		if err != nil {
			return fmt.Errorf("build diagram: %w", err)
		}
		switch pipe.DiagramOrigin() {
		case stage.OriginResumed:
			progress("resumed diagram (%d units) from %s", len(d.Units), m.Dir())
		case stage.OriginBuilt:
			progress("checkpointed diagram to %s", m.Dir())
		}
	}
	for _, k := range kinds {
		name := pipe.DatabaseArtifact(k)
		db, err := pipe.DatabaseCtx(ctx, k)
		if err != nil {
			return fmt.Errorf("annotate %s: %w", name, err)
		}
		switch pipe.DatabaseOrigin(k) {
		case stage.OriginResumed:
			progress("resumed %s (%d trajectories) from %s", name, len(db), m.Dir())
		case stage.OriginBuilt:
			progress("checkpointed %s to %s", name, m.Dir())
		}
	}
	return nil
}

// loadInputs reads both input files under the given failure policy,
// wrapping every error with the file it came from. In lenient mode the
// per-file skip statistics are reported on stderr.
func loadInputs(poiPath, journeyPath string, opts load.Options) ([]poi.POI, []trajectory.Journey, error) {
	pf, err := os.Open(poiPath)
	if err != nil {
		return nil, nil, fmt.Errorf("load pois: %w", err)
	}
	defer pf.Close()
	pois, pstats, err := poi.ReadCSVOptions(pf, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("load pois %s: %w", poiPath, err)
	}
	jf, err := os.Open(journeyPath)
	if err != nil {
		return nil, nil, fmt.Errorf("load journeys: %w", err)
	}
	defer jf.Close()
	journeys, jstats, err := trajectory.ReadJourneysCSVOptions(jf, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("load journeys %s: %w", journeyPath, err)
	}
	if opts.Lenient {
		if n := pstats.TotalSkipped(); n > 0 {
			progress("pois: skipped %d bad rows (%s)", n, pstats)
		}
		if n := jstats.TotalSkipped(); n > 0 {
			progress("journeys: skipped %d bad rows (%s)", n, jstats)
		}
	}
	progress("loaded %d POIs, %d journeys", len(pois), len(journeys))
	return pois, journeys, nil
}

// loadShardInputs is the out-of-core input path for sharded diagram
// builds: POIs load normally, but the journey file is streamed —
// never materialized — into a temporary columnar stay store whose
// chunks shards later load by halo rectangle. The returned cleanup
// closes and removes the spill file.
func loadShardInputs(poiPath, journeyPath string, opts load.Options) ([]poi.POI, *shard.StayStore, func(), error) {
	pf, err := os.Open(poiPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("load pois: %w", err)
	}
	defer pf.Close()
	pois, pstats, err := poi.ReadCSVOptions(pf, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("load pois %s: %w", poiPath, err)
	}
	if opts.Lenient {
		if n := pstats.TotalSkipped(); n > 0 {
			progress("pois: skipped %d bad rows (%s)", n, pstats)
		}
	}
	tmp, err := os.CreateTemp("", "csdm-stays-*.csdstay")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spill stays: %w", err)
	}
	spill := tmp.Name()
	tmp.Close()
	w, err := shard.CreateStayStore(spill, 0)
	if err != nil {
		os.Remove(spill)
		return nil, nil, nil, err
	}
	jf, err := os.Open(journeyPath)
	if err != nil {
		os.Remove(spill)
		return nil, nil, nil, fmt.Errorf("load journeys: %w", err)
	}
	defer jf.Close()
	jstats, err := trajectory.StreamJourneysCSV(jf, opts, func(j trajectory.Journey) error {
		// Pickup then dropoff per journey — core.Stays' canonical
		// global stay-id order, which the sharded build's exactness
		// contract depends on.
		if err := w.Add(j.Pickup); err != nil {
			return err
		}
		return w.Add(j.Dropoff)
	})
	if err != nil {
		os.Remove(spill)
		return nil, nil, nil, fmt.Errorf("load journeys %s: %w", journeyPath, err)
	}
	if err := w.Close(); err != nil {
		os.Remove(spill)
		return nil, nil, nil, fmt.Errorf("spill stays: %w", err)
	}
	store, err := shard.OpenStayStore(spill)
	if err != nil {
		os.Remove(spill)
		return nil, nil, nil, err
	}
	if opts.Lenient {
		if n := jstats.TotalSkipped(); n > 0 {
			progress("journeys: skipped %d bad rows (%s)", n, jstats)
		}
	}
	progress("loaded %d POIs; spilled %d stays (%d journeys) to %s", len(pois), store.Len(), jstats.Rows, spill)
	return pois, store, func() { store.Close(); os.Remove(spill) }, nil
}

// buildSharded runs the geo-sharded CSD construction and reports its
// out-of-core statistics. The diagram is bit-identical to the
// monolithic build for any tiling, worker count and index backend.
func buildSharded(tr *obs.Trace, cfg core.Config, pois []poi.POI, src shard.StaySource, rows, cols, workers int, mgr *ckpt.Manager) (*csd.Diagram, error) {
	t0 := time.Now()
	plan, err := shard.NewPlan(geo.BoundingRect(poi.Locations(pois)), rows, cols, cfg.CSD.R3Sigma)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	env := stage.Env{Ctx: ctx, Run: ctx, Trace: tr, Opt: cfg.ExecOptions()}
	d, st, err := shard.Build(env, pois, src, shard.Config{
		Plan: plan, Params: cfg.CSD, ShardWorkers: workers, Ckpt: mgr,
	})
	if err != nil {
		return nil, fmt.Errorf("sharded build: %w", err)
	}
	progress("sharded diagram: %dx%d tiles (%d active, %d resumed), stays total=%d loaded=%d max-resident=%d, built in %.1fs",
		rows, cols, st.ActiveShards, st.ResumedShards, st.TotalStays, st.LoadedStays, st.MaxShardStays, time.Since(t0).Seconds())
	return d, nil
}

func runDiagram(pipe *core.Pipeline, savePath string) error {
	t0 := time.Now()
	d, err := pipe.DiagramCtx(context.Background())
	if err != nil {
		return fmt.Errorf("build diagram: %w", err)
	}
	progress("City Semantic Diagram built in %.1fs", time.Since(t0).Seconds())
	fmt.Printf("units: %d, POI coverage: %.1f%%, mean purity: %.3f\n",
		len(d.Units), d.Coverage()*100, d.MeanUnitPurity())
	// Largest units.
	units := make([]int, 0, len(d.Units))
	for i := range d.Units {
		units = append(units, i)
	}
	sort.Slice(units, func(a, b int) bool {
		return len(d.Units[units[a]].Members) > len(d.Units[units[b]].Members)
	})
	fmt.Println("largest units:")
	for i := 0; i < 10 && i < len(units); i++ {
		u := d.Units[units[i]]
		fmt.Printf("  unit %4d: %4d POIs at %s  %s\n", u.ID, len(u.Members), u.Center, u.Semantics)
	}
	if savePath != "" {
		if err := ckpt.WriteAtomic(savePath, d.Write); err != nil {
			return fmt.Errorf("save diagram %s: %w", savePath, err)
		}
		progress("diagram written to %s", savePath)
	}
	return nil
}

func runRecognize(pipe *core.Pipeline, out string) error {
	t0 := time.Now()
	db, err := pipe.DatabaseCtx(context.Background(), core.RecCSD)
	if err != nil {
		return fmt.Errorf("annotate journeys: %w", err)
	}
	annotated, total := 0, 0
	for _, st := range db {
		for _, sp := range st.Stays {
			total++
			if !sp.S.IsEmpty() {
				annotated++
			}
		}
	}
	progress("recognized %d trajectories (%d/%d stays annotated) in %.1fs",
		len(db), annotated, total, time.Since(t0).Seconds())
	if err := ckpt.WriteAtomic(out, func(w io.Writer) error {
		return trajectory.WriteSemanticJSON(w, db)
	}); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	progress("wrote %s", out)
	return nil
}

func runMine(pipe *core.Pipeline, a core.Approach, params pattern.Params, top int, savePatterns string) error {
	t0 := time.Now()
	ps, err := pipe.MineCtx(context.Background(), a, params)
	if err != nil {
		return fmt.Errorf("mine %s: %w", a, err)
	}
	s := metrics.Summarize(ps)
	progress("%s mined %d patterns in %.1fs (σ=%d, ρ=%g, δt=%s)",
		a, len(ps), time.Since(t0).Seconds(), params.Sigma, params.Rho, params.DeltaT)
	fmt.Printf("approach=%s patterns=%d coverage=%d sparsity=%.1f consistency=%.3f\n",
		a, len(ps), s.Coverage, s.MeanSparsity, s.MeanConsistency)
	if savePatterns != "" {
		if err := ckpt.WriteAtomic(savePatterns, func(w io.Writer) error {
			return pattern.WriteJSON(w, ps)
		}); err != nil {
			return fmt.Errorf("save patterns %s: %w", savePatterns, err)
		}
		progress("patterns written to %s", savePatterns)
	}

	sort.Slice(ps, func(x, y int) bool { return ps[x].Support > ps[y].Support })
	if top > len(ps) {
		top = len(ps)
	}
	for i := 0; i < top; i++ {
		p := ps[i]
		fmt.Printf("  #%2d support=%4d ss=%5.1f sc=%.3f  ", i+1, p.Support,
			metrics.SpatialSparsity(p), metrics.SemanticConsistency(p))
		for k, sp := range p.Stays {
			if k > 0 {
				fmt.Print(" → ")
			}
			fmt.Printf("%s@%s", sp.S, sp.P)
		}
		fmt.Println()
	}
	return nil
}
