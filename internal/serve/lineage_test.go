package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// writePatterns writes a minimal valid pattern file and returns its path.
func writePatterns(tb testing.TB, dir string, ps []pattern.Pattern) string {
	tb.Helper()
	path := filepath.Join(dir, "patterns.json")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pattern.WriteJSON(f, ps); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

func samplePatterns(n int) []pattern.Pattern {
	ps := make([]pattern.Pattern, n)
	for i := range ps {
		ps[i] = pattern.Pattern{
			Stays:   []trajectory.StayPoint{{P: at(float64(i), 0), T: time.Unix(int64(1000+i), 0).UTC()}},
			Items:   []poi.Semantics{0},
			Support: i + 2,
		}
	}
	return ps
}

// TestReloadRollsBackPatterns corrupts the installed patterns file and
// reloads: the swap must abort before anything goes live — the old
// diagram AND the old pattern set keep serving, and the failure is
// counted. A fixed patterns file then reloads cleanly with the new set.
func TestReloadRollsBackPatterns(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	snapPath := writeSnapshot(t, dir, testDiagram(t))
	patPath := writePatterns(t, dir, samplePatterns(2))
	if err := s.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPatterns(patPath); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Patterns()); got != 2 {
		t.Fatalf("patterns after LoadPatterns = %d, want 2", got)
	}
	live := s.Snapshot()

	if err := os.WriteFile(patPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err == nil || !strings.Contains(err.Error(), "patterns") {
		t.Fatalf("Reload with corrupt patterns: err = %v, want patterns decode failure", err)
	}
	if got := s.Snapshot(); got != live {
		t.Fatal("corrupt-patterns reload swapped the diagram")
	}
	if got := len(s.Patterns()); got != 2 {
		t.Fatalf("patterns after failed reload = %d, want the old 2", got)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "csdm_serve_reload_failures_total 1") {
		t.Fatalf("csdm_serve_reload_failures_total != 1 after failed reload:\n%s", buf.String())
	}

	// A repaired patterns file reloads: new generation, new pattern set,
	// in the same swap.
	writePatterns(t, dir, samplePatterns(3))
	snap, err := s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != live.Generation+1 {
		t.Fatalf("generation after repaired reload = %d, want %d", snap.Generation, live.Generation+1)
	}
	if got := len(s.Patterns()); got != 3 {
		t.Fatalf("patterns after repaired reload = %d, want 3", got)
	}
}

// TestDiagramGenerationPropagates checks the lineage carried in the
// framing-v2 header flows through LoadSnapshot into the Snapshot, the
// /v1/info response, and the csdm_serve_diagram_generation gauge —
// while Snapshot.Generation stays the swap count.
func TestDiagramGenerationPropagates(t *testing.T) {
	dir := t.TempDir()
	d := testDiagram(t)
	d.Generation = 7
	d.ParentGeneration = 6
	path := writeSnapshot(t, dir, d)

	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	if err := s.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Generation != 1 {
		t.Fatalf("swap generation = %d, want 1", snap.Generation)
	}
	if snap.DiagramGeneration != 7 || snap.DiagramParent != 6 {
		t.Fatalf("diagram lineage = %d/%d, want 7/6", snap.DiagramGeneration, snap.DiagramParent)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/info = %d: %s", w.Code, w.Body.String())
	}
	var info struct {
		Generation        int64 `json:"generation"`
		DiagramGeneration int64 `json:"diagram_generation"`
		DiagramParent     int64 `json:"diagram_parent_generation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.DiagramGeneration != 7 || info.DiagramParent != 6 {
		t.Fatalf("/v1/info lineage = %+v, want generation 1, diagram 7/6", info)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "csdm_serve_diagram_generation 7") {
		t.Fatalf("csdm_serve_diagram_generation gauge missing or wrong:\n%s", buf.String())
	}
}

// TestLoadCurrentAndWatch drives the pull half of the streaming
// publish protocol: LoadCurrent resolves the checkpoint directory's
// CURRENT pointer, and StartWatch hot-swaps when an ingester publishes
// a newer generation.
func TestLoadCurrentAndWatch(t *testing.T) {
	dir := t.TempDir()
	mgr, err := ckpt.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := testDiagram(t)
	base.Generation = 1
	if err := mgr.SaveGenerationDiagram(base); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	if err := s.LoadCurrent(dir); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap == nil || snap.DiagramGeneration != 1 {
		t.Fatalf("snapshot after LoadCurrent = %+v, want diagram generation 1", snap)
	}

	stop := s.StartWatch(2 * time.Millisecond)
	defer stop()

	// Publish generation 2: the watcher must flip to it without any
	// explicit Reload call.
	next := testDiagram(t)
	next.Generation = 2
	next.ParentGeneration = 1
	if err := mgr.SaveGenerationDiagram(next); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := s.Snapshot(); snap != nil && snap.DiagramGeneration == 2 {
			if snap.DiagramParent != 1 {
				t.Fatalf("diagram parent after watch flip = %d, want 1", snap.DiagramParent)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher never flipped to generation 2 (still %d)", s.Snapshot().DiagramGeneration)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLoadCurrentRejectsDangling points LoadCurrent at a directory
// whose CURRENT names a missing file: the load must fail and the
// server must stay unready.
func TestLoadCurrentRejectsDangling(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckpt.CurrentFile), []byte("diagram.9.csdf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadCurrent(dir); err == nil {
		t.Fatal("LoadCurrent accepted a dangling CURRENT pointer")
	}
	if s.Ready() {
		t.Fatal("server ready after failed LoadCurrent")
	}
}

// TestWatchPendingEmptyDir covers the cold-start race: csdserve points
// at a checkpoint directory before the ingester publishes its first
// generation. Pre-fix, LoadCurrent hard-failed and the watcher logged a
// ResolveCurrent error on every tick; now the not-yet-published state
// is a single "waiting" transition plus the csdm_serve_watch_pending
// gauge, and the first published generation is adopted automatically.
func TestWatchPendingEmptyDir(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var logMu sync.Mutex
	var logs []string
	s := New(Config{Registry: reg, Logf: func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	if err := s.LoadCurrent(dir); err != nil {
		t.Fatalf("LoadCurrent on a not-yet-published dir: %v", err)
	}
	if s.Ready() {
		t.Fatal("ready with no snapshot")
	}
	if g, ok := reg.Gauge("csdm_serve_watch_pending"); !ok || g != 1 {
		t.Fatalf("watch_pending after pending LoadCurrent = %v, %v; want 1", g, ok)
	}

	stop := s.StartWatch(2 * time.Millisecond)
	defer stop()
	// Let ~25 ticks elapse against the still-empty directory; the
	// pre-fix watcher logged one resolve error per tick.
	time.Sleep(50 * time.Millisecond)
	logMu.Lock()
	waiting := 0
	for _, line := range logs {
		if strings.Contains(line, "waiting for first generation") {
			waiting++
		}
		if strings.Contains(line, "no CURRENT pointer") && !strings.Contains(line, "waiting") {
			t.Fatalf("per-tick resolve error leaked to the log: %q", line)
		}
	}
	logMu.Unlock()
	if waiting > 1 {
		t.Fatalf("watcher logged the pending transition %d times, want at most once", waiting)
	}

	// First generation lands: the watcher must adopt it and clear the
	// pending gauge.
	mgr, err := ckpt.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := testDiagram(t)
	d.Generation = 1
	if err := mgr.SaveGenerationDiagram(d); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := s.Snapshot(); snap != nil && snap.DiagramGeneration == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never adopted the first published generation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if g, ok := reg.Gauge("csdm_serve_watch_pending"); !ok || g != 0 {
		t.Fatalf("watch_pending after first generation = %v, %v; want 0", g, ok)
	}
	if !s.Ready() {
		t.Fatal("server not ready after adopting the first generation")
	}
}
