package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"csdm/internal/obs"
	"csdm/internal/poi"
	"csdm/internal/synth"
	"csdm/internal/trajectory"
)

// buildCLI compiles the csdminer binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "csdminer")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeInputs materializes a small synthetic dataset as CSV files.
func writeInputs(t *testing.T, dir string) (poiPath, journeyPath string) {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = 5
	scfg.NumPOIs = 400
	scfg.NumPassengers = 40
	scfg.Days = 2
	city := synth.NewCity(scfg)
	w := city.GenerateWorkload()
	poiPath = filepath.Join(dir, "pois.csv")
	journeyPath = filepath.Join(dir, "journeys.csv")
	var pb, jb bytes.Buffer
	if err := poi.WriteCSV(&pb, city.POIs); err != nil {
		t.Fatal(err)
	}
	if err := trajectory.WriteJourneysCSV(&jb, w.Journeys); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(poiPath, pb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journeyPath, jb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return poiPath, journeyPath
}

// runCLI executes the binary and returns its exit code and combined
// output.
func runCLI(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("run %v: %v\n%s", args, err, out)
	return -1, ""
}

// TestCLIExitCodes pins the exit-code contract: 2 for usage errors, 3
// for input errors, 4 for pipeline failures (here injected with the
// -fault flag), 0 for a healthy run.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	pois, journeys := writeInputs(t, dir)

	if code, out := runCLI(t, bin); code != exitUsage {
		t.Errorf("no subcommand: exit %d, want %d\n%s", code, exitUsage, out)
	}
	if code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys, "explode"); code != exitUsage {
		t.Errorf("unknown subcommand: exit %d, want %d\n%s", code, exitUsage, out)
	}
	if code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys,
		"-approach", "CSD-Magic", "mine"); code != exitUsage {
		t.Errorf("unknown approach: exit %d, want %d\n%s", code, exitUsage, out)
	}
	if code, out := runCLI(t, bin, "-pois", filepath.Join(dir, "nope.csv"),
		"-journeys", journeys, "diagram"); code != exitInput {
		t.Errorf("missing input: exit %d, want %d\n%s", code, exitInput, out)
	}
	if code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys,
		"-checkpoint", filepath.Join(dir, "ck"), "-ingest", journeys,
		"-keep-generations", "-3", "ingest"); code != exitUsage {
		t.Errorf("negative -keep-generations: exit %d, want %d\n%s", code, exitUsage, out)
	}
	if code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys,
		"-fault", "csd.popularity:error:1", "diagram"); code != exitPipeline {
		t.Errorf("injected build fault: exit %d, want %d\n%s", code, exitPipeline, out)
	}
	if code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys, "diagram"); code != 0 {
		t.Errorf("healthy diagram run: exit %d\n%s", code, out)
	}
}

// TestCLILenientLoad checks that a corrupt row fails a strict run with
// the input exit code and file context, while -lenient skips it,
// reports the skip, and completes.
func TestCLILenientLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	pois, journeys := writeInputs(t, dir)

	raw, err := os.ReadFile(pois)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	dirty := lines[0] + "\nnotanid,x,121.4,31.2,Chinese Restaurant\n" + lines[1] + "\n" + lines[2]
	dirtyPath := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(dirtyPath, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := runCLI(t, bin, "-pois", dirtyPath, "-journeys", journeys, "diagram")
	if code != exitInput {
		t.Errorf("strict dirty load: exit %d, want %d\n%s", code, exitInput, out)
	}
	if !strings.Contains(out, "dirty.csv") {
		t.Errorf("strict error does not name the file:\n%s", out)
	}
	code, out = runCLI(t, bin, "-pois", dirtyPath, "-journeys", journeys, "-lenient", "diagram")
	if code != 0 {
		t.Errorf("lenient dirty load: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "skipped 1 bad rows") {
		t.Errorf("lenient run does not report the skip:\n%s", out)
	}
}

// TestCLIMetricsOut runs a mine with -metrics-out and validates the
// final Prometheus dump: it must pass the exposition linter and cover
// the metric families the telemetry layer promises (stage durations,
// exec task latencies, runtime gauges, checkpoint counters, and the
// pre-declared fault counter).
func TestCLIMetricsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	pois, journeys := writeInputs(t, dir)
	metricsPath := filepath.Join(dir, "metrics.txt")

	code, out := runCLI(t, bin, "-pois", pois, "-journeys", journeys,
		"-checkpoint", filepath.Join(dir, "ckpt"),
		"-metrics-out", metricsPath, "-trace", "mine")
	if code != 0 {
		t.Fatalf("mine with -metrics-out -trace: exit %d\n%s", code, out)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, fam := range []string{
		"csdm_stage_duration_seconds_bucket",
		"csdm_stage_duration_seconds_count",
		"csdm_exec_task_seconds_count",
		"csdm_exec_tasks_total",
		"csdm_exec_panics_total 0",
		"csdm_fault_injected_total 0",
		"go_goroutines",
		"go_gc_pause_seconds",
		"ckpt_saved_diagram",
		"csdm_patterns_mined_total",
		"csdm_index_query_seconds",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("metrics dump missing %q", fam)
		}
	}
	if errs := obs.Lint(strings.NewReader(body)); len(errs) != 0 {
		t.Fatalf("metrics dump fails lint: %v\n%s", errs, body)
	}
	// One store: the -trace report lists the registry-hooked exec
	// counter and the trace's own checkpoint counter with the values
	// the dump exposes under their sanitized names.
	for report, dump := range map[string]string{
		"csdm_exec_tasks_total": "csdm_exec_tasks_total",
		"ckpt.saved.diagram":    "ckpt_saved_diagram",
	} {
		want, ok := metricValue(body, dump)
		if !ok {
			t.Fatalf("metrics dump lacks %s:\n%s", dump, body)
		}
		if got, ok := metricValue(out, report); !ok || got != want {
			t.Errorf("-trace report %s = %q (listed=%v), dump %s = %q", report, got, ok, dump, want)
		}
	}
}

// metricValue returns the value on the first "name value" line of a
// -trace report or a Prometheus dump.
func metricValue(text, name string) (string, bool) {
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1], true
		}
	}
	return "", false
}
