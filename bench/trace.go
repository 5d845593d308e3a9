package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"csdm/internal/obs"
)

// tracer keeps the benchmark's own spans in memory: one around each
// public call a workload makes into the system, plus — grafted under
// that call — the spans the program's obs.Trace recorded inside it.
// Spans are written out only when the run ends. A nil *tracer records
// nothing, so untraced runs pay one pointer comparison per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Program spans carry no start time
// (obs records durations only); their StartMs is -1.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open benchmark span; the zero-ID span of a nil tracer is
// inert.
type span struct {
	t     *tracer
	id    int
	start time.Time
}

// start opens a span under parent (0 for a root). IDs are assigned at
// start so children can name their parent before it ends.
func (t *tracer) start(parent int, name string) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name})
	id := len(t.spans)
	t.mu.Unlock()
	return span{t: t, id: id, start: time.Now()}
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	r := &s.t.spans[s.id-1]
	r.StartMs = ms(s.start.Sub(s.t.t0))
	r.DurMs = ms(d)
	s.t.mu.Unlock()
}

// graft attaches the program spans recorded on tr — the roots past the
// first skip — as children of s, and returns the new root count so the
// next call grafts only what it added.
func (s span) graft(tr *obs.Trace, skip int) int {
	if s.t == nil {
		return skip
	}
	roots := tr.Snapshot().Spans
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	var add func(parent int, sp obs.SpanSnapshot)
	add = func(parent int, sp obs.SpanSnapshot) {
		s.t.spans = append(s.t.spans, spanRec{ID: len(s.t.spans) + 1, Parent: parent, Name: sp.Name, StartMs: -1, DurMs: sp.Millis})
		id := len(s.t.spans)
		for _, c := range sp.Children {
			add(id, c)
		}
	}
	for _, r := range roots[min(skip, len(roots)):] {
		add(s.id, r)
	}
	return len(roots)
}

// finish computes every span's self time — its duration minus the part
// covered by its children — and returns the spans. The children of a
// span are taken to run one after another, so their durations add up;
// where they overlap (the parallel per-tile stages of a sharded build),
// the parent's self time clamps at zero.
func (t *tracer) finish() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, r := range t.spans {
		child[r.Parent] += r.DurMs
	}
	for i := range t.spans {
		t.spans[i].SelfMs = max(t.spans[i].DurMs-child[t.spans[i].ID], 0)
	}
	return t.spans
}

// writeSpanTable prints total and self time per span name, largest
// self time first.
func writeSpanTable(w io.Writer, spans []spanRec) {
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var names []string
	for _, r := range spans {
		a := by[r.Name]
		if a == nil {
			a = &agg{}
			by[r.Name] = a
			names = append(names, r.Name)
		}
		a.n++
		a.total += r.DurMs
		a.self += r.SelfMs
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "  %-44s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-44s %8d %12.2f %12.2f\n", n, a.n, a.total, a.self)
	}
}

// layerSample flattens one operation's program telemetry: every span's
// duration in ms under its own name and under "parent/name", summed
// over repeats, plus every counter.
type layerSample map[string]float64

func flatten(tr *obs.Trace) layerSample {
	out := layerSample{}
	var walk func(parent string, sp obs.SpanSnapshot)
	walk = func(parent string, sp obs.SpanSnapshot) {
		out[sp.Name] += sp.Millis
		if parent != "" {
			out[parent+"/"+sp.Name] += sp.Millis
		}
		for _, c := range sp.Children {
			walk(sp.Name, c)
		}
	}
	snap := tr.Snapshot()
	for _, r := range snap.Spans {
		walk("", r)
	}
	for k, v := range snap.Counters {
		out[k] += float64(v)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
