package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tinyScale runs every workload's full code path in about a second.
func tinyScale() scale {
	return scale{
		POIs: 300, Passengers: 60, Days: 2,
		Cities: 2, Spacing: 0.15,
		Batches: 10, BatchFrac: 0.05,
		Warmup: 100 * time.Millisecond, OpenLoop: 100 * time.Millisecond,
	}
}

func runTiny(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := runWorkload(context.Background(), options{
		workload: workload,
		seed:     seed,
		seconds:  0.4,
		trace:    trace,
		scale:    tinyScale(),
		workDir:  filepath.Join(t.TempDir(), "work"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s: output checks failed: %v", workload, rep.Errors)
	}
	return rep
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsAtTinyScale runs every workload untraced and traced with
// all output checks passing: the untraced result line carries every
// end-to-end metric of BENCHMARK.json, none of them zero, and the traced
// one every per-layer metric.
func TestWorkloadsAtTinyScale(t *testing.T) {
	s := testSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep := runTiny(t, w.name, 1, trace)
				line, err := rep.resultLine(s)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("trace=%v: attempted %d, failed %d", trace, line.Attempted, line.Failed)
				}
				if trace {
					continue
				}
				for name, m := range line.Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			}
		})
	}
}

// TestSeedDeterminesOutputs: the same seed gives the same corpus and
// the same mined output; another seed gives another corpus.
func TestSeedDeterminesOutputs(t *testing.T) {
	a := runTiny(t, "mine-city", 1, false)
	b := runTiny(t, "mine-city", 1, false)
	c := runTiny(t, "mine-city", 2, false)
	if !reflect.DeepEqual(a.Digests, b.Digests) {
		t.Errorf("seed 1 twice: digests %v vs %v", a.Digests, b.Digests)
	}
	if a.Digests["corpus"] == c.Digests["corpus"] {
		t.Errorf("seeds 1 and 2 generated the same corpus %s", a.Digests["corpus"])
	}
}

// TestSpecMatchesProgram: BENCHMARK.json names exactly the workloads
// and metrics this program measures, with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	s := testSpec(t)
	var specWorkloads, progWorkloads []string
	for _, w := range s.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, w.name)
	}
	if !reflect.DeepEqual(specWorkloads, progWorkloads) {
		t.Errorf("spec workloads %v, program %v", specWorkloads, progWorkloads)
	}
	names := func(defs []metricDef) []metricName {
		out := make([]metricName, len(defs))
		for i, d := range defs {
			out[i] = metricName{d.Name, d.Unit}
		}
		return out
	}
	if got := names(s.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("spec end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(s.PerLayer); !reflect.DeepEqual(got, layerDefs) {
		t.Errorf("spec per_layer %v, program %v", got, layerDefs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2].
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(0.5), "same"},
		{shift(20), "worse"},
		{shift(-20), "better"},
		{[]float64{50, 150, 100, 60, 140, 100, 55, 145, 100, 100}, "unresolved"},
	} {
		if got := verdict(lower, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "mine-city", "--trace", "1", "-seed", "3", "-trace"})
	want := []string{"--workload", "mine-city", "--trace=1", "-seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}
