// Command experiments regenerates the paper's tables and figures on the
// synthetic Shanghai workload.
//
// Usage:
//
//	experiments [-exp all|table1|table3|fig6|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig14g|fig14h]
//	            [-pois N] [-passengers N] [-days N] [-seed N]
//	            [-sigma N] [-rho F] [-deltat D]
//	            [-workers N] [-index grid|kdtree|rtree]
//	            [-timings timings.json]
//
// -timings writes a machine-readable JSON record of the run: wall time
// per experiment stage, p50/p95/p99 quantile rows for every latency
// histogram the pipeline recorded (also printed to stdout), and the
// full telemetry snapshot (spans, counters, histograms), giving future
// changes a perf trajectory to regress against.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/core"
	"csdm/internal/experiments"
	"csdm/internal/index"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/render"
)

// stageTiming is one -timings entry.
type stageTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// quantileRow is one histogram's quantile summary in the -timings
// document: the distribution (per-stage durations, task latencies,
// sampled index queries) flattened to the three alerting quantiles.
type quantileRow struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// timingsFile is the -timings JSON document.
type timingsFile struct {
	Workload     string        `json:"workload"`
	SetupSeconds float64       `json:"setup_seconds"`
	Stages       []stageTiming `json:"stages"`
	TotalSeconds float64       `json:"total_seconds"`
	// Quantiles summarizes every telemetry histogram the run produced,
	// sorted by name; the full bucket data rides in Trace.Histograms.
	Quantiles []quantileRow `json:"quantiles"`
	Trace     obs.Snapshot  `json:"trace"`
}

// exhibit is one table or figure of the paper that -exp can select.
type exhibit struct {
	name string
	run  runFunc
}

// runFunc renders one exhibit; params are the -sigma/-rho/-deltat
// mining parameters.
type runFunc func(e *experiments.Env, w io.Writer, params pattern.Params) error

// exhibits lists every exhibit in run order. It drives -exp's usage
// string, its name check and the dispatch.
var exhibits = []exhibit{
	{"table1", func(e *experiments.Env, w io.Writer, _ pattern.Params) error { e.RenderTable1(w); return nil }},
	{"table3", func(e *experiments.Env, w io.Writer, _ pattern.Params) error { e.RenderTable3(w); return nil }},
	{"fig6", func(e *experiments.Env, w io.Writer, _ pattern.Params) error { _, err := e.RenderFig6(w); return err }},
	{"fig8", func(e *experiments.Env, w io.Writer, _ pattern.Params) error { e.RenderFig8(w); return nil }},
	{"fig9", mined((*experiments.Env).RenderFig9)},
	{"fig10", mined((*experiments.Env).RenderFig10)},
	{"fig11", sweep("Figure 11", (*experiments.Env).Fig11)},
	{"fig12", sweep("Figure 12", (*experiments.Env).Fig12)},
	{"fig13", sweep("Figure 13", (*experiments.Env).Fig13)},
	{"fig14", mined((*experiments.Env).RenderFig14)},
	{"fig14g", mined((*experiments.Env).RenderFig14g)},
	{"fig14h", mined((*experiments.Env).RenderFig14h)},
}

// mined adapts a renderer that mines at -sigma/-rho/-deltat and
// returns its figure's result.
func mined[R any](render func(*experiments.Env, io.Writer, pattern.Params) (R, error)) runFunc {
	return func(e *experiments.Env, w io.Writer, params pattern.Params) error {
		_, err := render(e, w, params)
		return err
	}
}

// sweep adapts one of the parameter sweeps (Figures 11–13), which mine
// at their own parameter grid rather than -sigma/-rho/-deltat.
func sweep(figure string, fig func(*experiments.Env) (experiments.SweepResult, error)) runFunc {
	return func(e *experiments.Env, w io.Writer, _ pattern.Params) error {
		r, err := fig(e)
		if err == nil {
			experiments.RenderSweep(w, figure, r)
		}
		return err
	}
}

// selectExhibits returns the exhibits name selects: all of them for
// "all", else the one whose name matches exactly.
func selectExhibits(name string) ([]exhibit, bool) {
	if name == "all" {
		return exhibits, true
	}
	for _, x := range exhibits {
		if x.name == name {
			return []exhibit{x}, true
		}
	}
	return nil, false
}

// exhibitNames lists the names -exp accepts.
func exhibitNames() string {
	names := []string{"all"}
	for _, x := range exhibits {
		names = append(names, x.name)
	}
	return strings.Join(names, ", ")
}

// quantileRows flattens a snapshot's histograms into sorted rows.
func quantileRows(snap obs.Snapshot) []quantileRow {
	rows := make([]quantileRow, 0, len(snap.Histograms))
	for name, h := range snap.Histograms {
		rows = append(rows, quantileRow{Name: name, Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run ("+exhibitNames()+")")
		pois       = flag.Int("pois", experiments.DefaultScale().NumPOIs, "POI dataset size")
		passengers = flag.Int("passengers", experiments.DefaultScale().NumPassengers, "commuter population")
		days       = flag.Int("days", experiments.DefaultScale().Days, "simulated days")
		seed       = flag.Int64("seed", experiments.DefaultScale().Seed, "generator seed")
		sigma      = flag.Int("sigma", experiments.MiningParams().Sigma, "support threshold σ")
		rho        = flag.Float64("rho", experiments.MiningParams().Rho, "density threshold ρ (points/m²)")
		deltaT     = flag.Duration("deltat", experiments.MiningParams().DeltaT, "temporal constraint δ_t")
		svgDir     = flag.String("svg-dir", "", "also write fig6.svg (CSD units) and fig14.svg (patterns) into this directory")
		timings    = flag.String("timings", "", "write per-stage timing JSON (stages + pipeline telemetry) to this file")
		workers    = flag.Int("workers", 0, "worker budget for parallel pipeline stages (0 = all cores, 1 = sequential)")
		indexKind  = flag.String("index", "grid", "spatial index backend (grid, kdtree, rtree)")
	)
	flag.Parse()

	selected, ok := selectExhibits(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *exp, exhibitNames())
		os.Exit(2)
	}
	scale := experiments.Scale{Seed: *seed, NumPOIs: *pois, NumPassengers: *passengers, Days: *days}
	params := experiments.MiningParams()
	params.Sigma = *sigma
	params.Rho = *rho
	params.DeltaT = *deltaT

	pipeCfg := core.DefaultConfig()
	if *workers != 0 {
		pipeCfg.Workers = *workers
	}
	kind, err := index.ParseKind(*indexKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pipeCfg.Index = kind

	start := time.Now()
	fmt.Printf("generating synthetic Shanghai: %d POIs, %d passengers, %d days (seed %d)\n",
		scale.NumPOIs, scale.NumPassengers, scale.Days, scale.Seed)
	env := experiments.SetupConfig(scale, pipeCfg)
	setupSeconds := time.Since(start).Seconds()
	fmt.Printf("workload ready: %s (%.1fs)\n", env.Pipeline.Describe(), setupSeconds)

	var tr *obs.Trace
	if *timings != "" {
		tr = obs.New()
		env.Pipeline.SetTrace(tr)
	}

	var stages []stageTiming
	w := os.Stdout
	for _, x := range selected {
		t0 := time.Now()
		if err := x.run(env, w, params); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.name, err)
			os.Exit(1)
		}
		secs := time.Since(t0).Seconds()
		stages = append(stages, stageTiming{Name: x.name, Seconds: secs})
		fmt.Fprintf(w, "[%s done in %.1fs]\n", x.name, secs)
	}

	if *svgDir != "" {
		if err := writeSVGs(env, params, *svgDir); err != nil {
			fmt.Fprintln(os.Stderr, "svg:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s/fig6.svg and %s/fig14.svg\n", *svgDir, *svgDir)
	}

	fmt.Printf("total %.1fs\n", time.Since(start).Seconds())

	if *timings != "" {
		snap := tr.Snapshot()
		rows := quantileRows(snap)
		if len(rows) > 0 {
			fmt.Println("latency quantiles (seconds):")
			for _, r := range rows {
				fmt.Printf("  %-60s n=%-6d p50=%.4g p95=%.4g p99=%.4g\n", r.Name, r.Count, r.P50, r.P95, r.P99)
			}
		}
		doc := timingsFile{
			Workload:     env.Pipeline.Describe(),
			SetupSeconds: setupSeconds,
			Stages:       stages,
			TotalSeconds: time.Since(start).Seconds(),
			Quantiles:    rows,
			Trace:        snap,
		}
		if err := ckpt.WriteAtomic(*timings, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "timings:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *timings)
	}
}

// writeSVGs renders the Figure 6 and Figure 14 map views, each written
// atomically.
func writeSVGs(env *experiments.Env, params pattern.Params, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	canvas := render.NewCanvas(env.City.Center, env.City.ExtentMeters, 900)

	d, err := env.Pipeline.DiagramCtx(context.Background())
	if err != nil {
		return err
	}
	if err := ckpt.WriteAtomic(filepath.Join(dir, "fig6.svg"), func(w io.Writer) error {
		return canvas.Diagram(w, d)
	}); err != nil {
		return err
	}

	ps, err := env.Pipeline.MineCtx(context.Background(), core.CSDPM, params)
	if err != nil {
		return err
	}
	return ckpt.WriteAtomic(filepath.Join(dir, "fig14.svg"), func(w io.Writer) error {
		return canvas.Patterns(w, ps)
	})
}
