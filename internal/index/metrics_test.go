package index

import (
	"strings"
	"testing"

	"csdm/internal/geo"
	"csdm/internal/obs"
)

func metricsTestPoints() []geo.Point {
	pts := make([]geo.Point, 0, 100)
	for i := 0; i < 100; i++ {
		pts = append(pts, geo.Point{
			Lat: 31.2 + float64(i%10)*0.0005,
			Lon: 121.4 + float64(i/10)*0.0005,
		})
	}
	return pts
}

// TestSampledQueries attaches a registry with every=1 (time every
// query) and checks that both range query paths record latency and
// result sizes, that range queries are the only operation exposed, and
// that the exposition passes lint.
func TestSampledQueries(t *testing.T) {
	r := obs.NewRegistry()
	SetMetrics(r, 1)
	defer SetMetrics(nil, 0)

	pts := metricsTestPoints()
	for _, kind := range []Kind{KindGrid, KindKDTree, KindRTree} {
		idx := New(kind, pts, 100)
		center := pts[0]
		plain := idx.Within(center, 200)
		buf := idx.WithinAppend(center, 200, nil)
		if len(plain) != len(buf) {
			t.Fatalf("%v: instrumented Within/WithinAppend disagree: %d vs %d", kind, len(plain), len(buf))
		}
		b := kind.String()
		lat := r.HistogramSnapshot(obs.Label("csdm_index_query_seconds", "backend", b, "op", "within"))
		if lat.Count != 2 {
			t.Fatalf("%v: within latency observations = %d, want 2", kind, lat.Count)
		}
		size := r.HistogramSnapshot(obs.Label("csdm_index_query_results", "backend", b, "op", "within"))
		if size.Count != 2 || size.Sum != float64(2*len(plain)) {
			t.Fatalf("%v: result-size histogram = %+v, want 2 observations summing %d", kind, size, 2*len(plain))
		}
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(strings.NewReader(b.String())); len(errs) != 0 {
		t.Fatalf("index metrics fail lint: %v\n%s", errs, b.String())
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "csdm_index_query_") && !strings.Contains(line, `op="within"`) {
			t.Fatalf("index series for an operation other than within: %s", line)
		}
	}
}

// TestSamplingPeriod: with every=4 only every fourth query is timed.
func TestSamplingPeriod(t *testing.T) {
	r := obs.NewRegistry()
	SetMetrics(r, 4)
	defer SetMetrics(nil, 0)

	idx := New(KindGrid, metricsTestPoints(), 100)
	for i := 0; i < 16; i++ {
		idx.Within(geo.Point{Lat: 31.2, Lon: 121.4}, 100)
	}
	lat := r.HistogramSnapshot(obs.Label("csdm_index_query_seconds", "backend", "grid", "op", "within"))
	if lat.Count != 4 {
		t.Fatalf("sampled observations = %d, want 4 (1 in 4 of 16)", lat.Count)
	}
}

// TestUninstrumentedWithoutRegistry: with no registry attached, New
// returns the raw backend — no wrapper, no per-query overhead.
func TestUninstrumentedWithoutRegistry(t *testing.T) {
	SetMetrics(nil, 0)
	idx := New(KindGrid, metricsTestPoints(), 100)
	if _, ok := idx.(*sampled); ok {
		t.Fatal("New wrapped the index with no registry attached")
	}
	if _, ok := idx.(*Grid); !ok {
		t.Fatalf("New returned %T, want *Grid", idx)
	}
}

// TestDirectConstructorsStayRaw: NewGrid and friends never get the
// sampling wrapper, even with a registry attached.
func TestDirectConstructorsStayRaw(t *testing.T) {
	r := obs.NewRegistry()
	SetMetrics(r, 1)
	defer SetMetrics(nil, 0)
	idx := NewGrid(metricsTestPoints(), 100)
	idx.Within(geo.Point{Lat: 31.2, Lon: 121.4}, 100)
	lat := r.HistogramSnapshot(obs.Label("csdm_index_query_seconds", "backend", "grid", "op", "within"))
	if lat.Count != 0 {
		t.Fatalf("direct NewGrid construction was instrumented: %d observations", lat.Count)
	}
}
