package stage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"csdm/internal/exec"
	"csdm/internal/obs"
)

// fakeStore is an in-memory checkpoint store.
type fakeStore struct {
	mu    sync.Mutex
	files map[string][]byte
	saves int
}

func newFakeStore() *fakeStore { return &fakeStore{files: make(map[string][]byte)} }

func (s *fakeStore) Load(artifact, file string, read func(io.Reader) error) bool {
	s.mu.Lock()
	b, ok := s.files[file]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return read(bytes.NewReader(b)) == nil
}

func (s *fakeStore) Save(artifact, file string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	s.mu.Lock()
	s.files[file] = buf.Bytes()
	s.saves++
	s.mu.Unlock()
	return nil
}

// intCodec round-trips an int as decimal text.
var intCodec = Codec[int]{
	Encode: func(w io.Writer, v int) error { _, err := fmt.Fprintf(w, "%d", v); return err },
	Decode: func(r io.Reader) (int, error) { var v int; _, err := fmt.Fscan(r, &v); return v, err },
}

func staticGraph(cfg Config) *Graph { return NewGraph(func() Config { return cfg }) }

// TestMiddlewareOrder pins the engine's documented middleware order —
// span → deadline → fault → checkpoint → body — by walking the span
// tree a fully-engaged stage leaves on the trace.
func TestMiddlewareOrder(t *testing.T) {
	tr := obs.New()
	g := staticGraph(Config{
		Trace:        tr,
		StageTimeout: time.Minute,
		Store:        newFakeStore(),
	})
	c := Add(g, Decl{Name: "order", Site: "test.order", Artifact: "art", File: "art.txt"},
		func(Env) (int, error) { return 7, nil }).Checkpoint(intCodec)
	if _, err := c.Get(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	var root *obs.SpanSnapshot
	for i := range snap.Spans {
		if snap.Spans[i].Name == "stage.order" {
			root = &snap.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no stage.order span in %+v", snap.Spans)
	}
	cur := root
	for _, want := range []string{"deadline", "fault", "checkpoint"} {
		if len(cur.Children) != 1 || cur.Children[0].Name != want {
			t.Fatalf("under %s: children %+v, want exactly [%s]", cur.Name, cur.Children, want)
		}
		cur = &cur.Children[0]
	}
	name := obs.Label("csdm_stage_duration_seconds", "stage", "order")
	if got := tr.Registry().HistogramSnapshot(name).Count; got != 1 {
		t.Fatalf("%s observations = %d, want 1", name, got)
	}
}

// TestCellMemoizesAndRetries: a failed build never poisons the cell,
// a successful one is never repeated.
func TestCellMemoizesAndRetries(t *testing.T) {
	g := staticGraph(Config{})
	calls := 0
	c := Add(g, Decl{Name: "flaky"}, func(Env) (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 42, nil
	})
	if c.Origin() != OriginUnbuilt {
		t.Fatal("origin before first Get")
	}
	if _, err := c.Get(context.Background()); err == nil {
		t.Fatal("first Get should fail")
	}
	if c.Err() == nil {
		t.Fatal("Err should report the failed build")
	}
	v, err := c.Get(context.Background())
	if err != nil || v != 42 {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if c.Err() != nil {
		t.Fatalf("Err after success: %v", c.Err())
	}
	if _, _ = c.Get(context.Background()); calls != 2 {
		t.Fatalf("body ran %d times, want 2", calls)
	}
	if c.Origin() != OriginBuilt {
		t.Fatalf("origin = %v, want built", c.Origin())
	}
}

// TestCellConcurrentGet: concurrent callers share one build.
func TestCellConcurrentGet(t *testing.T) {
	g := staticGraph(Config{Opt: exec.Options{Workers: 4}})
	var calls int32
	c := Add(g, Decl{Name: "shared"}, func(Env) (int, error) {
		calls++ // safe: the cell lock is held across the build
		time.Sleep(10 * time.Millisecond)
		return 1, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := c.Get(context.Background()); err != nil || v != 1 {
				t.Errorf("Get: v=%d err=%v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("body ran %d times under concurrent Get, want 1", calls)
	}
}

// TestCheckpointSaveAndResume: the first build persists the artifact,
// a fresh cell over the same store resumes without running its body.
func TestCheckpointSaveAndResume(t *testing.T) {
	store := newFakeStore()
	decl := Decl{Name: "ck", Artifact: "art", File: "art.txt"}

	g1 := staticGraph(Config{Store: store})
	c1 := Add(g1, decl, func(Env) (int, error) { return 99, nil }).Checkpoint(intCodec)
	if v, err := c1.Get(context.Background()); err != nil || v != 99 {
		t.Fatalf("build: v=%d err=%v", v, err)
	}
	if c1.Origin() != OriginBuilt || store.saves != 1 {
		t.Fatalf("origin=%v saves=%d after first build", c1.Origin(), store.saves)
	}

	g2 := staticGraph(Config{Store: store})
	c2 := Add(g2, decl, func(Env) (int, error) {
		t.Error("body ran despite a valid checkpoint")
		return 0, nil
	}).Checkpoint(intCodec)
	if v, err := c2.Get(context.Background()); err != nil || v != 99 {
		t.Fatalf("resume: v=%d err=%v", v, err)
	}
	if c2.Origin() != OriginResumed {
		t.Fatalf("origin = %v, want resumed", c2.Origin())
	}
}

// TestSetInstallsOnce: Set wins over the body and the store, and never
// overwrites a built value.
func TestSetInstallsOnce(t *testing.T) {
	g := staticGraph(Config{Store: newFakeStore()})
	c := Add(g, Decl{Name: "inst", Artifact: "a", File: "a.txt"}, func(Env) (int, error) {
		t.Error("body ran despite Set")
		return 0, nil
	}).Checkpoint(intCodec)
	c.Set(5)
	if v, _ := c.Get(context.Background()); v != 5 || c.Origin() != OriginInstalled {
		t.Fatalf("v=%d origin=%v", v, c.Origin())
	}
	c.Set(6) // too late
	if v, _ := c.Get(context.Background()); v != 5 {
		t.Fatalf("Set overwrote a built cell: %d", v)
	}
}

// TestDependencyResolution: declared deps build before the dependent's
// body runs, and a dep's failure surfaces as-is.
func TestDependencyResolution(t *testing.T) {
	g := staticGraph(Config{})
	depErr := errors.New("dep down")
	failing := true
	var order []string
	a := Add(g, Decl{Name: "a"}, func(Env) (int, error) {
		if failing {
			return 0, depErr
		}
		order = append(order, "a")
		return 10, nil
	})
	b := Add(g, Decl{Name: "b", Deps: []string{"a"}}, func(env Env) (int, error) {
		order = append(order, "b")
		v, err := a.Get(env.Run)
		return v + 1, err
	})

	if _, err := b.Get(context.Background()); !errors.Is(err, depErr) {
		t.Fatalf("dep failure surfaced as %v, want %v as-is", err, depErr)
	}
	failing = false
	v, err := b.Get(context.Background())
	if err != nil || v != 11 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("build order %v, want [a b]", order)
	}
}

// TestStageDeadline: an overrun of the stage's own deadline is wrapped
// with the stage name and counted, and errors.Is-compatible with
// context.DeadlineExceeded.
func TestStageDeadline(t *testing.T) {
	tr := obs.New()
	g := staticGraph(Config{Trace: tr, StageTimeout: 20 * time.Millisecond})
	c := Add(g, Decl{Name: "slow"}, func(env Env) (int, error) {
		<-env.Ctx.Done()
		return 0, env.Ctx.Err()
	})
	_, err := c.Get(context.Background())
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "stage slow exceeded its") {
		t.Fatalf("timeout error not classified: %v", err)
	}
	if got := tr.Counter(obs.Label("csdm_stage_timeouts_total", "stage", "slow")); got != 1 {
		t.Fatalf("slow stage timeouts = %d, want 1", got)
	}
}

// TestRunCancelNotRelabeled: a run-level cancellation is never dressed
// up as a stage timeout.
func TestRunCancelNotRelabeled(t *testing.T) {
	tr := obs.New()
	g := staticGraph(Config{Trace: tr, StageTimeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	c := Add(g, Decl{Name: "canceled"}, func(env Env) (int, error) {
		cancel()
		<-env.Ctx.Done()
		return 0, env.Ctx.Err()
	})
	_, err := c.Get(ctx)
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want plain cancellation", err)
	}
	if got := tr.Counter(obs.Label("csdm_stage_timeouts_total", "stage", "canceled")); got != 0 {
		t.Fatalf("canceled stage timeouts = %d, want 0", got)
	}
}

// TestRunEachIsolation: a panicking slot fails alone, as its own
// *exec.PanicError; its siblings complete.
func TestRunEachIsolation(t *testing.T) {
	g := staticGraph(Config{Opt: exec.Options{Workers: 2}})
	out := RunEach(g, context.Background(), 4, func(i int, _ Env) (int, error) {
		if i == 2 {
			panic("slot 2 exploded")
		}
		return i * i, nil
	})
	for i, r := range out {
		if i == 2 {
			var pe *exec.PanicError
			if !errors.As(r.Err, &pe) || !strings.Contains(pe.Error(), "slot 2 exploded") {
				t.Fatalf("slot 2: err = %v, want PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil || r.V != i*i {
			t.Fatalf("slot %d: v=%d err=%v", i, r.V, r.Err)
		}
	}
}

// TestRunEachNotRun: slots the aborted pool never reached read
// ErrNotRun instead of an empty success.
func TestRunEachNotRun(t *testing.T) {
	g := staticGraph(Config{Opt: exec.Options{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := RunEach(g, ctx, 3, func(i int, _ Env) (int, error) { return i, nil })
	for i, r := range out {
		if !errors.Is(r.Err, ErrNotRun) {
			t.Fatalf("slot %d: err = %v, want ErrNotRun", i, r.Err)
		}
	}
}

// TestAddPanicsOnWiringBugs: duplicate names and undeclared deps are
// programmer errors, caught at declaration time.
func TestAddPanicsOnWiringBugs(t *testing.T) {
	g := staticGraph(Config{})
	Add(g, Decl{Name: "x"}, func(Env) (int, error) { return 0, nil })
	mustPanic(t, "duplicate name", func() {
		Add(g, Decl{Name: "x"}, func(Env) (int, error) { return 0, nil })
	})
	mustPanic(t, "undeclared dep", func() {
		Add(g, Decl{Name: "y", Deps: []string{"ghost"}}, func(Env) (int, error) { return 0, nil })
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestStagesIntrospection: the graph reports declarations and origins.
func TestStagesIntrospection(t *testing.T) {
	g := staticGraph(Config{})
	a := Add(g, Decl{Name: "a", Artifact: "art", File: "f"}, func(Env) (int, error) { return 1, nil })
	Add(g, Decl{Name: "b", Deps: []string{"a"}, Site: "s"}, func(Env) (int, error) { return 2, nil })
	infos := g.Stages()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("stages = %+v", infos)
	}
	if infos[0].Artifact != "art" || infos[1].Site != "s" || infos[1].Deps[0] != "a" {
		t.Fatalf("declarations lost: %+v", infos)
	}
	if infos[0].Origin != OriginUnbuilt {
		t.Fatal("origin before build")
	}
	if _, err := a.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := g.Stages()[0].Origin; got != OriginBuilt {
		t.Fatalf("origin after build = %v", got)
	}
}
