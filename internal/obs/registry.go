package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the metrics store: named counters, gauges and histograms,
// read back as snapshots (the trace report and /debug/trace) or written
// out in the Prometheus text exposition format 0.0.4 (/metrics). Every
// Trace owns one — Trace.Registry returns it — and a binary without a
// trace (a serving daemon) creates its own with NewRegistry. Instrument
// hot paths directly with Histogram so the per-observation cost is one
// pointer's worth of indirection and no map lookup.
//
// Metric names may be plain ("go_goroutines"), dotted legacy telemetry
// names ("ckpt.saved.diagram" — sanitized to ckpt_saved_diagram at
// exposition), or carry a label suffix built with Label
// (`stage_duration_seconds{stage="csd.build"}`), which the writer
// splits back into one metric family with labeled series.
//
// All methods are nil-safe: a nil *Registry records nothing, returns
// nil histograms (whose Observe is a no-op), snapshots empty maps, and
// writes nothing.
type Registry struct {
	counters sync.Map // string -> *int64
	gauges   sync.Map // string -> *uint64 (math.Float64bits)
	hists    sync.Map // string -> *Histogram
	help     sync.Map // family -> string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add increments the named counter by delta, creating it at zero on
// first use (Add with delta 0 pre-declares a series so it is exposed
// before its first real event).
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	v, ok := r.counters.Load(name)
	if !ok {
		v, _ = r.counters.LoadOrStore(name, new(int64))
	}
	atomic.AddInt64(v.(*int64), delta)
}

// Counter returns the named counter's current value.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	v, ok := r.counters.Load(name)
	if !ok {
		return 0
	}
	return atomic.LoadInt64(v.(*int64))
}

// SetGauge records the latest value of the named gauge.
func (r *Registry) SetGauge(name string, value float64) {
	if r == nil {
		return
	}
	v, ok := r.gauges.Load(name)
	if !ok {
		v, _ = r.gauges.LoadOrStore(name, new(uint64))
	}
	atomic.StoreUint64(v.(*uint64), math.Float64bits(value))
}

// Gauge returns the named gauge's latest value and whether it was set.
func (r *Registry) Gauge(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	v, ok := r.gauges.Load(name)
	if !ok {
		return 0, false
	}
	return math.Float64frombits(atomic.LoadUint64(v.(*uint64))), true
}

// Observe records one observation on the named histogram, creating it
// with the DefBuckets ladder on first use.
func (r *Registry) Observe(name string, v float64) {
	r.Histogram(name, DefBuckets).Observe(v)
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (an existing histogram keeps its original
// bounds). Hot paths call this once at setup and hold the returned
// pointer, so each Observe skips the name lookup. On a nil registry it
// returns nil — a valid no-op histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists.Load(name)
	if !ok {
		h, _ = r.hists.LoadOrStore(name, NewHistogram(bounds))
	}
	return h.(*Histogram)
}

// HistogramSnapshot returns the named histogram's current state.
func (r *Registry) HistogramSnapshot(name string) HistogramSnapshot {
	if r == nil {
		return HistogramSnapshot{}
	}
	h, ok := r.hists.Load(name)
	if !ok {
		return HistogramSnapshot{}
	}
	return h.(*Histogram).Snapshot()
}

// Counters snapshots every counter (an empty, never nil, map).
func (r *Registry) Counters() map[string]int64 {
	out := make(map[string]int64)
	if r != nil {
		r.counters.Range(func(k, v any) bool {
			out[k.(string)] = atomic.LoadInt64(v.(*int64))
			return true
		})
	}
	return out
}

// Gauges snapshots every gauge (an empty, never nil, map).
func (r *Registry) Gauges() map[string]float64 {
	out := make(map[string]float64)
	if r != nil {
		r.gauges.Range(func(k, v any) bool {
			out[k.(string)] = math.Float64frombits(atomic.LoadUint64(v.(*uint64)))
			return true
		})
	}
	return out
}

// Histograms snapshots every histogram (an empty, never nil, map).
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot)
	if r != nil {
		r.hists.Range(func(k, v any) bool {
			out[k.(string)] = v.(*Histogram).Snapshot()
			return true
		})
	}
	return out
}

// Describe sets the HELP text for a metric family (the name without
// any label suffix). Families without a description get a generic one.
func (r *Registry) Describe(family, help string) {
	if r == nil {
		return
	}
	r.help.Store(family, help)
}

// Label appends a Prometheus label suffix to a metric family name:
// Label("q_seconds", "backend", "grid") is `q_seconds{backend="grid"}`.
// Values are escaped per the exposition format (backslash, quote,
// newline); kv must alternate key, value. Build labeled names once at
// setup, not per observation — the result is a fresh string.
func Label(family string, kv ...string) string {
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// splitName separates a metric name from its optional label suffix.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i > 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// sanitizeMetricName maps an arbitrary telemetry name onto the
// Prometheus metric-name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*, replacing
// every invalid rune (the dots of legacy counter names, dashes of
// approach names) with '_'.
func sanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	valid := func(i int, c byte) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			return true
		case c >= '0' && c <= '9':
			return i > 0
		default:
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if !valid(i, s[i]) {
			b := []byte(s)
			for j := range b {
				if !valid(j, b[j]) {
					b[j] = '_'
				}
			}
			return string(b)
		}
	}
	return s
}

// series is one exposed time series inside a family.
type series struct {
	labels string // raw label body, "" for none
	kind   byte   // 'c' counter, 'g' gauge, 'h' histogram
	ival   int64
	fval   float64
	hist   HistogramSnapshot
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format 0.0.4: families sorted by name, each with its HELP and TYPE
// line; histogram families expose cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`, so p50/p95/p99 are derivable by any
// Prometheus-compatible scraper via histogram_quantile.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := make(map[string][]series)
	add := func(name string, s series) {
		fam, labels := splitName(name)
		fam = sanitizeMetricName(fam)
		s.labels = labels
		fams[fam] = append(fams[fam], s)
	}
	for name, v := range r.Counters() {
		add(name, series{kind: 'c', ival: v})
	}
	for name, v := range r.Gauges() {
		add(name, series{kind: 'g', fval: v})
	}
	for name, h := range r.Histograms() {
		add(name, series{kind: 'h', hist: h})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, fam := range names {
		ss := fams[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		help := "csdm telemetry metric " + fam
		if h, ok := r.help.Load(fam); ok {
			help = h.(string)
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, typeName(ss[0].kind))
		for _, s := range ss {
			switch s.kind {
			case 'c':
				fmt.Fprintf(&b, "%s%s %d\n", fam, wrapLabels(s.labels), s.ival)
			case 'g':
				fmt.Fprintf(&b, "%s%s %s\n", fam, wrapLabels(s.labels), formatValue(s.fval))
			case 'h':
				writeHistogram(&b, fam, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeName(kind byte) string {
	switch kind {
	case 'g':
		return "gauge"
	case 'h':
		return "histogram"
	default:
		return "counter"
	}
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// withLE merges an le label into an existing label body.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func writeHistogram(b *strings.Builder, fam, labels string, h HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", fam, withLE(labels, formatValue(bound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", fam, withLE(labels, "+Inf"), h.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", fam, wrapLabels(labels), formatValue(h.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", fam, wrapLabels(labels), h.Count)
}
