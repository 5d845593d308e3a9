// Command bench is the repository's benchmark: four workloads over the
// whole system — batch mining, streaming ingestion beside reads, online
// recognition, and the sharded country build — each generated from a
// seed, run in its own process, checked for correct output, and reported
// as end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the repository root names the workloads and metrics
// and fixes each end-to-end metric's regression bound; bench/README.md
// says what each one measures. Run it from the repository root through
// bench/run.sh, which builds it first:
//
//	bash bench/run.sh --workload mine-city --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -all -seed 1 [-trace] [-out DIR]
//	bash bench/run.sh compare A/ B/
//
// A single-workload run prints its full report on standard error and,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. It exits 1 when an output
// check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	run  func(*runner) error
}

var workloads = []workload{
	{"mine-city", mineCity},
	{"ingest-stream", ingestStream},
	{"serve-recognize", serveRecognize},
	{"country-sharded", countrySharded},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 0, "measurement window in seconds (0: run_seconds from the spec)")
		trace    = fs.Bool("trace", false, "traced run: report per-layer metrics instead of end-to-end ones")
		all      = fs.Bool("all", false, "run every workload, each in its own process, and print a summary")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark spec")
		out      = fs.String("out", "", "directory to save each run's full JSON report in")
		work     = fs.String("work", filepath.Join(".bench_build", "work"), "directory for the run's files")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(s.RunSeconds)
	}
	if *all {
		return runAll(s, *seed, *seconds, *trace, *specPath, *out, *work, stdout, stderr)
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace,
		scale:    fullScale(),
		workDir:  filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.writeText(stderr)
	line, err := rep.resultLine(s)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		path, err := rep.save(*out)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "report:", path)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// normalizeArgs lets -trace take its value as a separate 0/1 argument
// ("--trace 1") as well as the usual bare "-trace".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if v := args[i+1]; v == "0" || v == "1" || v == "true" || v == "false" {
				out = append(out, a+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runAll runs each workload of the spec in its own process, so each
// one's peak RSS is its own, and prints the metrics the runs report —
// end-to-end, or per-layer when traced — with unit and sample count.
func runAll(s *spec, seed int64, seconds float64, trace bool, specPath, out, work string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir := out
	if dir == "" {
		if err = os.MkdirAll(work, 0o755); err == nil {
			dir, err = os.MkdirTemp(work, "reports-")
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}
	defs := s.EndToEnd
	if trace {
		defs = s.PerLayer
	}
	code := 0
	for _, w := range s.Workloads {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			fmt.Sprintf("-trace=%v", trace), "-spec", specPath, "-out", dir, "-work", work}
		cmd := exec.Command(self, args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		path := ""
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if p, ok := strings.CutPrefix(sc.Text(), "report: "); ok {
				path = p
			}
		}
		if path == "" {
			fmt.Fprintf(stdout, "%s: FAILED (%v)\n", w.Name, runErr)
			code = 1
			continue
		}
		rep, err := loadReport(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s  seed %d  correct=%v attempted=%d failed=%d  (num_cpu=%d GOMAXPROCS=%d %s)\n",
			w.Name, seed, rep.Correct, rep.Attempted, rep.Failed, rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion)
		for _, d := range defs {
			m := rep.Metrics[d.Name]
			fmt.Fprintf(stdout, "  %-34s %14.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
		}
		if runErr != nil || !rep.Correct {
			code = 1
		}
	}
	return code
}
