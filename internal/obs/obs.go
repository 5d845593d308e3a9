// Package obs is the pipeline telemetry layer: hierarchical wall-time
// spans collected into a Trace, plus the one metrics store — a Registry
// of counters, gauges and histograms — that every view reads. A Trace
// owns its spans and one Registry: its counter, gauge and histogram
// methods write that Registry, the text report and the JSON snapshot
// read it, and so does the Prometheus exposition behind /metrics.
//
// Every method is nil-safe: a nil *Trace — and the nil *Span that its
// Start returns — is a complete no-op, so instrumented code threads a
// trace unconditionally and never branches on whether telemetry is on.
// The nil fast path is a single pointer comparison, keeping untraced
// pipeline runs at their uninstrumented speed.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace owns the spans of one pipeline run and the Registry its
// counters, gauges and histograms live in. The zero value is not
// useful; use New. All methods are safe for concurrent use —
// extraction stages update counters from worker goroutines.
type Trace struct {
	mu    sync.Mutex
	roots []*Span
	reg   *Registry
}

// New returns an empty trace, with an empty Registry, ready to collect
// telemetry.
func New() *Trace { return &Trace{reg: NewRegistry()} }

// Registry returns the store behind the trace's metrics (nil for a nil
// trace). Layers that instrument a Registry directly — the execution,
// index and fault hooks, the runtime sampler — write it, so the trace's
// report and snapshot show their metrics next to the pipeline's own.
func (t *Trace) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start opens a root span. On a nil trace it returns a nil span, whose
// methods are all no-ops.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{trace: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Add increments the named counter by delta, creating it at zero on
// first use.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.reg.Add(name, delta)
}

// Counter returns the named counter's current value (zero when the
// counter was never incremented).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	return t.reg.Counter(name)
}

// SetGauge records the latest value of the named gauge.
func (t *Trace) SetGauge(name string, value float64) {
	if t == nil {
		return
	}
	t.reg.SetGauge(name, value)
}

// Observe records one observation on the named histogram, creating it
// with the DefBuckets ladder on first use. Latency observations are in
// seconds by convention (name the metric *_seconds). Names may carry a
// Prometheus label suffix built with Label, which the exposition
// writer splits back into family and labels.
func (t *Trace) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.reg.Observe(name, v)
}

// Span is one timed region of the pipeline. Spans nest: children are
// opened with Start and closed with End. A nil *Span is a no-op.
type Span struct {
	trace *Trace
	name  string
	start time.Time

	mu       sync.Mutex
	children []*Span
	ended    bool
	dur      time.Duration
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{trace: s.trace, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its wall time. Ending twice is harmless.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Add increments a counter in the span's trace's Registry — a
// convenience so stage code holding only a span can still count.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.trace.reg.Add(name, delta)
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's wall time; for a still-open span, the
// time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanSnapshot is the serializable form of one span.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Millis   float64        `json:"ms"`
	Running  bool           `json:"running,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot is the serializable form of a whole trace. Every field
// marshals as an empty (never null) collection when unpopulated, so
// the /debug/trace JSON shape is stable for consumers regardless of
// which telemetry kinds a run produced.
type Snapshot struct {
	Spans      []SpanSnapshot               `json:"spans"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	running := !s.ended
	dur := s.dur
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if running {
		dur = time.Since(s.start)
	}
	snap := SpanSnapshot{
		Name:    s.name,
		Millis:  float64(dur) / float64(time.Millisecond),
		Running: running,
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot())
	}
	return snap
}

// Snapshot captures the trace's current spans and its Registry's
// counters, gauges and histograms. Open spans report their elapsed
// time so far, so a live debug endpoint can snapshot mid-run.
func (t *Trace) Snapshot() Snapshot {
	reg := t.Registry()
	snap := Snapshot{
		Spans:      []SpanSnapshot{},
		Counters:   reg.Counters(),
		Gauges:     reg.Gauges(),
		Histograms: reg.Histograms(),
	}
	if t == nil {
		return snap
	}
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	for _, r := range roots {
		snap.Spans = append(snap.Spans, r.snapshot())
	}
	return snap
}

// MarshalJSON renders the trace's snapshot.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Snapshot())
}

// WriteText writes the indented stage report: the span tree with wall
// times, then the Registry's counters, gauges and histograms sorted by
// name.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	snap := t.Snapshot()
	var b strings.Builder
	if len(snap.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, s := range snap.Spans {
			writeSpanText(&b, s, 1)
		}
	}
	if len(snap.Counters) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(snap.Counters))
		for n := range snap.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-52s %d\n", n, snap.Counters[n])
		}
	}
	if len(snap.Gauges) > 0 {
		b.WriteString("gauges:\n")
		names := make([]string, 0, len(snap.Gauges))
		for n := range snap.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-52s %g\n", n, snap.Gauges[n])
		}
	}
	if len(snap.Histograms) > 0 {
		b.WriteString("histograms:\n")
		names := make([]string, 0, len(snap.Histograms))
		for n := range snap.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := snap.Histograms[n]
			fmt.Fprintf(&b, "  %-52s n=%d p50=%.4g p95=%.4g p99=%.4g sum=%.4g\n",
				n, h.Count, h.P50, h.P95, h.P99, h.Sum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSpanText(b *strings.Builder, s SpanSnapshot, depth int) {
	indent := strings.Repeat("  ", depth)
	state := ""
	if s.Running {
		state = " (running)"
	}
	fmt.Fprintf(b, "%s%-*s %9.1fms%s\n", indent, 54-2*depth, s.Name, s.Millis, state)
	for _, c := range s.Children {
		writeSpanText(b, c, depth+1)
	}
}

// Report returns the text report as a string ("" for a nil trace).
func (t *Trace) Report() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}
