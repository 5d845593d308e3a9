package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one measured value with its unit and the number of samples
// it summarizes (1 for a single measurement).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// machine records where a report was measured.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// report is everything one workload run measured. The full report is
// what -out saves and compare reads; the one-line result printed last
// on standard output is cut from it by resultLine.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Machine   machine           `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   map[string]string `json:"digests"`
	Errors    []string          `json:"errors,omitempty"`
	Spans     []spanRec         `json:"spans,omitempty"`
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// resultLine is the one-line result: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run, each exactly as
// the spec names them.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine(s *spec) (resultLine, error) {
	defs := s.EndToEnd
	if r.Trace {
		defs = s.PerLayer
	}
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("workload %s measured no %q", r.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			return out, fmt.Errorf("metric %s: measured in %q, spec says %q", d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

// writeText prints the human-readable report: machine, every metric
// with unit and sample count, digests, failed checks and, for a traced
// run, the span table.
func (r *report) writeText(w io.Writer) {
	m := r.Machine
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "machine  num_cpu=%d GOMAXPROCS=%d workers=%d %s %s/%s\n", m.NumCPU, m.GOMAXPROCS, m.Workers, m.GoVersion, m.GOOS, m.GOARCH)
	fmt.Fprintf(w, "ops      attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.6g %-8s n=%d\n", n, v.Value, v.Unit, v.Samples)
	}
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  digest %-29s %s\n", k, r.Digests[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
	if len(r.Spans) > 0 {
		writeSpanTable(w, r.Spans)
	}
}

// save writes the full report as JSON into dir, under the first free
// name <workload>.seed<N>[.trace].<k>.json.
func (r *report) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create report dir: %w", err)
	}
	kind := ""
	if r.Trace {
		kind = ".trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	for k := 1; ; k++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.seed%d%s.%d.json", r.Workload, r.Seed, kind, k))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("create report: %w", err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return "", fmt.Errorf("write report: %w", err)
		}
		return path, f.Close()
	}
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return &s, nil
}
