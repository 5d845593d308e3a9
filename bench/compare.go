package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// compareMain compares two directories of saved untraced reports — A
// the parent, B the change — metric by metric and workload by workload:
//
//	bench compare [-spec BENCHMARK.json] A/ B/
//
// For each end-to-end metric it prints both sides' median and quartiles,
// the share of pairs (A's i-th run against B's i-th, in file-name order)
// that B wins, and a verdict:
//
//	unresolved  either side's interquartile range exceeds the metric's
//	            bound, and B's runs do not all beat (or all lose to) A's
//	better      B wins at least nine tenths of the pairs and its median
//	            differs from A's by more than A's interquartile range
//	worse       B's median is worse than A's by more than the bound
//	same        otherwise
//
// It exits 1 when any metric is worse or a workload is missing a side.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec (metric bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A/ B/")
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := loadReports(fs.Arg(0))
	if err == nil {
		var b map[string][]*report
		if b, err = loadReports(fs.Arg(1)); err == nil {
			return compareReports(s, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// loadReports reads every untraced report in dir, grouped by workload
// in file-name order.
func loadReports(dir string) (map[string][]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]*report{}
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			return nil, err
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

func compareReports(s *spec, a, b map[string][]*report, w io.Writer) int {
	code := 0
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		fmt.Fprintf(w, "%s  (A: %d runs, B: %d runs)\n", wl.Name, len(ra), len(rb))
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintln(w, "  missing runs")
			code = 1
			continue
		}
		fmt.Fprintf(w, "  %-14s %-5s %10s %10s %10s %7s  %10s %10s %10s %7s  %6s  %s\n",
			"metric", "unit", "A.q1", "A.median", "A.q3", "A.iqr%", "B.q1", "B.median", "B.q3", "B.iqr%", "B.wins", "verdict")
		for _, d := range s.EndToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			v := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-14s %-5s %10.4g %10.4g %10.4g %6.1f%%  %10.4g %10.4g %10.4g %6.1f%%  %5.0f%%  %s\n",
				d.Name, d.Unit, a1, median(va), a3, 100*spread(va), b1, median(vb), b3, 100*spread(vb), 100*wins(d, va, vb), v)
		}
	}
	return code
}

func values(rs []*report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// better reports whether x is better than y for metric d.
func better(d metricDef, x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// wins is the share of pairs (i-th of a against i-th of b) that b wins;
// ties count for neither side.
func wins(d metricDef, a, b []float64) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	won := 0
	for i := 0; i < n; i++ {
		if better(d, b[i], a[i]) {
			won++
		}
	}
	return float64(won) / float64(n)
}

// verdict applies the decision rule in compareMain's comment.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	ma, mb := median(a), median(b)
	dominates := func(x, y []float64) bool {
		for _, u := range x {
			for _, v := range y {
				if !better(d, u, v) {
					return false
				}
			}
		}
		return true
	}
	worse := better(d, ma, mb) && math.Abs(mb-ma) > d.Bound*math.Abs(ma)
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		switch {
		case dominates(b, a):
			return "better"
		case dominates(a, b) && worse:
			return "worse"
		}
		return "unresolved"
	case wins(d, a, b) >= 0.9 && better(d, mb, ma):
		q1, q3 := quartiles(a)
		if math.Abs(mb-ma) > q3-q1 {
			return "better"
		}
	case worse:
		return "worse"
	}
	return "same"
}
