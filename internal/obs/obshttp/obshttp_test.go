package obshttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"csdm/internal/obs"
	"csdm/internal/stage"
)

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestDebugEndpoints(t *testing.T) {
	tr := obs.New()
	reg := tr.Registry()
	sp := tr.Start("stage.test")
	tr.Add("ckpt.saved.diagram", 2)
	tr.Observe("csdm_stage_duration_seconds", 0.01)
	sp.End()

	stages := func() []stage.Info {
		return []stage.Info{
			{Name: "csd.build", Deps: []string{"stays"}, Artifact: "diagram", File: "d.json", Origin: stage.OriginBuilt},
			{Name: "broken", Err: errors.New("nope")},
		}
	}
	srv := httptest.NewServer(NewMux(Options{Trace: tr, Registry: reg, Stages: stages}))
	defer srv.Close()

	// /debug/trace: stable-shape JSON with the right content type.
	body, ct := get(t, srv, "/debug/trace")
	if ct != "application/json" {
		t.Fatalf("/debug/trace Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/trace not JSON: %v\n%s", err, body)
	}
	if len(snap.Spans) != 1 || snap.Counters["ckpt.saved.diagram"] != 2 {
		t.Fatalf("bad trace snapshot: %s", body)
	}
	if strings.Contains(body, `"histograms":null`) {
		t.Fatalf("trace JSON has null collections: %s", body)
	}

	// /debug/stages: JSON list with origins and errors.
	body, ct = get(t, srv, "/debug/stages")
	if ct != "application/json" {
		t.Fatalf("/debug/stages Content-Type = %q", ct)
	}
	var infos []map[string]any
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("/debug/stages not JSON: %v\n%s", err, body)
	}
	if len(infos) != 2 || infos[0]["name"] != "csd.build" || infos[0]["origin"] != "built" {
		t.Fatalf("bad stages payload: %s", body)
	}
	if infos[1]["error"] != "nope" {
		t.Fatalf("stage error not surfaced: %s", body)
	}

	// /metrics: Prometheus exposition carrying the trace's telemetry,
	// clean under the package linter.
	body, ct = get(t, srv, "/metrics")
	if ct != ContentTypeMetrics {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{"ckpt_saved_diagram 2", "csdm_stage_duration_seconds_count 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if errs := obs.Lint(strings.NewReader(body)); len(errs) != 0 {
		t.Fatalf("/metrics fails lint: %v\n%s", errs, body)
	}

	// /debug/vars: expvar serves the runtime's own variables.
	body, _ = get(t, srv, "/debug/vars")
	if !strings.Contains(body, `"memstats"`) {
		t.Fatalf("/debug/vars missing memstats:\n%s", body)
	}

	// /debug/pprof/ index renders.
	body, _ = get(t, srv, "/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

// TestNilTolerance: a mux over nothing still serves stable responses.
func TestNilTolerance(t *testing.T) {
	srv := httptest.NewServer(NewMux(Options{}))
	defer srv.Close()
	body, _ := get(t, srv, "/debug/trace")
	for _, want := range []string{`"spans": []`, `"counters": {}`, `"histograms": {}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("nil trace JSON missing %s:\n%s", want, body)
		}
	}
	body, _ = get(t, srv, "/debug/stages")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil stages = %q, want []", body)
	}
	body, _ = get(t, srv, "/metrics")
	if body != "" {
		t.Fatalf("nil registry /metrics = %q, want empty", body)
	}
}

// TestOneStoreBacksEveryView: metrics written through the trace and
// straight into its Registry (the way the exec, index and fault hooks
// write) show the same values in /debug/trace and in /metrics.
func TestOneStoreBacksEveryView(t *testing.T) {
	tr := obs.New()
	tr.Add("ckpt.saved.diagram", 3)
	tr.Add("extract.CSD-PM.patterns", 125)
	tr.SetGauge("csd.coverage", 0.75)
	tr.Registry().Add("csdm_exec_tasks_total", 9)
	srv := httptest.NewServer(NewMux(Options{Trace: tr, Registry: tr.Registry()}))
	defer srv.Close()

	body, _ := get(t, srv, "/debug/trace")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/trace not JSON: %v\n%s", err, body)
	}
	metrics, _ := get(t, srv, "/metrics")
	counters := map[string]string{
		"ckpt.saved.diagram":      "ckpt_saved_diagram",
		"extract.CSD-PM.patterns": "extract_CSD_PM_patterns",
		"csdm_exec_tasks_total":   "csdm_exec_tasks_total",
	}
	for name, fam := range counters {
		v, ok := snap.Counters[name]
		if !ok {
			t.Fatalf("/debug/trace lacks counter %s: %s", name, body)
		}
		if want := fmt.Sprintf("\n%s %d\n", fam, v); !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q (the /debug/trace value):\n%s", strings.TrimSpace(want), metrics)
		}
	}
	if v := snap.Gauges["csd.coverage"]; v != 0.75 || !strings.Contains(metrics, "\ncsd_coverage 0.75\n") {
		t.Fatalf("gauge differs across views: /debug/trace %v, /metrics:\n%s", v, metrics)
	}
}
