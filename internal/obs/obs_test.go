package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New()
	root := tr.Start("build")
	child := root.Start("clustering")
	grand := child.Start("grid")
	grand.End()
	child.End()
	sibling := root.Start("merging")
	sibling.End()
	root.End()
	other := tr.Start("extract")
	other.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d root spans, want 2", len(snap.Spans))
	}
	b := snap.Spans[0]
	if b.Name != "build" || len(b.Children) != 2 {
		t.Fatalf("root span = %q with %d children, want build with 2", b.Name, len(b.Children))
	}
	if b.Children[0].Name != "clustering" || len(b.Children[0].Children) != 1 {
		t.Fatalf("first child = %q with %d children, want clustering with 1", b.Children[0].Name, len(b.Children[0].Children))
	}
	if b.Children[0].Children[0].Name != "grid" {
		t.Fatalf("grandchild = %q, want grid", b.Children[0].Children[0].Name)
	}
	if b.Running {
		t.Fatal("ended root span still reported running")
	}

	report := tr.Report()
	for _, name := range []string{"build", "clustering", "grid", "merging", "extract"} {
		if !strings.Contains(report, name) {
			t.Fatalf("report missing span %q:\n%s", name, report)
		}
	}
	// Children indent deeper than their parent.
	lines := strings.Split(report, "\n")
	indentOf := func(name string) int {
		for _, l := range lines {
			if strings.Contains(l, name) {
				return len(l) - len(strings.TrimLeft(l, " "))
			}
		}
		t.Fatalf("line for %q not found", name)
		return 0
	}
	if !(indentOf("grid") > indentOf("clustering") && indentOf("clustering") > indentOf("build")) {
		t.Fatalf("indentation does not reflect nesting:\n%s", report)
	}
}

func TestOpenSpanReportsElapsed(t *testing.T) {
	tr := New()
	sp := tr.Start("long")
	time.Sleep(5 * time.Millisecond)
	snap := tr.Snapshot()
	if !snap.Spans[0].Running {
		t.Fatal("open span not reported running")
	}
	if snap.Spans[0].Millis <= 0 {
		t.Fatalf("open span elapsed = %v, want > 0", snap.Spans[0].Millis)
	}
	sp.End()
	d := sp.Duration()
	sp.End() // double End is harmless
	if sp.Duration() != d {
		t.Fatal("second End changed the duration")
	}
}

// TestNilTraceNoOp exercises the full nil no-op path that untraced
// pipeline runs take.
func TestNilTraceNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start("anything")
	if sp != nil {
		t.Fatal("nil trace returned a non-nil span")
	}
	child := sp.Start("child")
	child.Add("c", 1)
	child.End()
	sp.End()
	if sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span has non-zero name or duration")
	}
	tr.Add("counter", 7)
	if tr.Counter("counter") != 0 {
		t.Fatal("nil trace recorded a counter")
	}
	tr.SetGauge("g", 1)
	tr.Observe("h", 0.5)
	if tr.Registry() != nil {
		t.Fatal("nil trace returned a non-nil registry")
	}
	if tr.Report() != "" {
		t.Fatal("nil trace produced a report")
	}
	if err := tr.WriteText(nil); err != nil {
		t.Fatalf("nil trace WriteText: %v", err)
	}
	// The snapshot shape is stable even for a nil trace: empty, never
	// null, collections — so /debug/trace JSON always has the same keys.
	snap := tr.Snapshot()
	if snap.Spans == nil || len(snap.Spans) != 0 {
		t.Fatal("nil trace snapshot spans not an empty slice")
	}
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatal("nil trace snapshot has null collections")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"spans":[]`, `"counters":{}`, `"gauges":{}`, `"histograms":{}`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("nil snapshot JSON %s missing %s", data, key)
		}
	}
}

// TestSnapshotStableShape pins the satellite fix: an empty live trace
// must marshal empty collections, not nulls.
func TestSnapshotStableShape(t *testing.T) {
	data, err := json.Marshal(New().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "null") {
		t.Fatalf("empty trace snapshot JSON contains null: %s", data)
	}
}

// TestTraceObserve covers the Trace-level histogram surface and its
// appearance in snapshots and the text report.
func TestTraceObserve(t *testing.T) {
	tr := New()
	for i := 1; i <= 100; i++ {
		tr.Observe("lat_seconds", float64(i)/1000)
	}
	reg := tr.Registry()
	h := reg.HistogramSnapshot("lat_seconds")
	if h.Count != 100 {
		t.Fatalf("count = %d, want 100", h.Count)
	}
	if h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Fatalf("quantiles not ordered: p50=%g p95=%g p99=%g", h.P50, h.P95, h.P99)
	}
	all := reg.Histograms()
	if len(all) != 1 || all["lat_seconds"].Count != 100 {
		t.Fatalf("Histograms() = %+v, want one entry with count 100", all)
	}
	if rep := tr.Report(); !strings.Contains(rep, "histograms:") || !strings.Contains(rep, "lat_seconds") {
		t.Fatalf("report missing histogram section:\n%s", rep)
	}
	if reg.HistogramSnapshot("missing").Count != 0 {
		t.Fatal("unknown histogram not zero")
	}
}

// TestTraceRegistry verifies that a trace's metrics live in its one
// Registry: writes through the trace land there, writes straight into
// the Registry show up in the trace's snapshot and report, and the
// Registry is the trace's own for its whole life.
func TestTraceRegistry(t *testing.T) {
	tr := New()
	reg := tr.Registry()
	if reg == nil || tr.Registry() != reg {
		t.Fatal("trace registry missing or not stable")
	}
	tr.Add("ckpt.saved.diagram", 3)
	tr.Start("stage").Add("ckpt.saved.diagram", 1)
	tr.SetGauge("csd.coverage", 0.75)
	tr.Observe("stage_seconds", 0.01)
	if got := reg.Counter("ckpt.saved.diagram"); got != 4 {
		t.Fatalf("registry counter = %d, want 4", got)
	}
	if v, ok := reg.Gauge("csd.coverage"); !ok || v != 0.75 {
		t.Fatalf("registry gauge = %v (set=%v), want 0.75", v, ok)
	}
	if got := reg.HistogramSnapshot("stage_seconds").Count; got != 1 {
		t.Fatalf("registry histogram count = %d, want 1", got)
	}
	reg.Add("csdm_exec_tasks_total", 5)
	if got := tr.Counter("csdm_exec_tasks_total"); got != 5 {
		t.Fatalf("trace counter over registry write = %d, want 5", got)
	}
	if got := tr.Snapshot().Counters["csdm_exec_tasks_total"]; got != 5 {
		t.Fatalf("snapshot counter over registry write = %d, want 5", got)
	}
	if rep := tr.Report(); !strings.Contains(rep, "csdm_exec_tasks_total") {
		t.Fatalf("report missing registry-written counter:\n%s", rep)
	}
}

// TestConcurrentCounters hammers one counter and one gauge from many
// goroutines; run under -race this doubles as the data-race check for
// the extraction workers' telemetry path.
func TestConcurrentCounters(t *testing.T) {
	tr := New()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tr.Start("worker")
			for i := 0; i < perWorker; i++ {
				tr.Add("shared", 1)
				sp.Add("via-span", 2)
				tr.SetGauge("last", float64(i))
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	if got := tr.Counter("shared"); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := tr.Counter("via-span"); got != 2*workers*perWorker {
		t.Fatalf("via-span counter = %d, want %d", got, 2*workers*perWorker)
	}
	if v, ok := tr.Registry().Gauge("last"); !ok || v != perWorker-1 {
		t.Fatalf("gauge = %v (set=%v), want %d", v, ok, perWorker-1)
	}
	if n := len(tr.Snapshot().Spans); n != workers {
		t.Fatalf("got %d root spans, want %d", n, workers)
	}
}

func TestJSONSnapshot(t *testing.T) {
	tr := New()
	sp := tr.Start("build")
	sp.Start("clustering").End()
	sp.End()
	tr.Add("csd.clusters.grown", 42)
	tr.SetGauge("csd.coverage", 0.9)

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "build" || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("bad span round-trip: %+v", snap.Spans)
	}
	if snap.Counters["csd.clusters.grown"] != 42 {
		t.Fatalf("bad counter round-trip: %+v", snap.Counters)
	}
	if snap.Gauges["csd.coverage"] != 0.9 {
		t.Fatalf("bad gauge round-trip: %+v", snap.Gauges)
	}
}
