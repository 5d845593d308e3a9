package stage

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"csdm/internal/obs"
)

// TestStageMetrics runs stages through the engine with a traced config
// and checks the per-stage duration histogram
// and error/timeout counters land under their labeled families.
func TestStageMetrics(t *testing.T) {
	tr := obs.New()
	reg := tr.Registry()
	g := staticGraph(Config{Trace: tr})

	ok := Add(g, Decl{Name: "fine"}, func(Env) (int, error) { return 1, nil })
	boom := errors.New("boom")
	bad := Add(g, Decl{Name: "broken"}, func(Env) (int, error) { return 0, boom })

	if _, err := ok.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Get(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}

	for _, name := range []string{
		obs.Label("csdm_stage_duration_seconds", "stage", "fine"),
		obs.Label("csdm_stage_duration_seconds", "stage", "broken"),
	} {
		if got := reg.HistogramSnapshot(name).Count; got != 1 {
			t.Fatalf("%s observations = %d, want 1", name, got)
		}
	}
	if got := reg.Counter(obs.Label("csdm_stage_errors_total", "stage", "broken")); got != 1 {
		t.Fatalf("broken error counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.Label("csdm_stage_errors_total", "stage", "fine")); got != 0 {
		t.Fatalf("fine stage counted an error: %d", got)
	}
	if got := tr.Counter("stage.errors"); got != 1 {
		t.Fatalf("stage.errors = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(strings.NewReader(b.String())); len(errs) != 0 {
		t.Fatalf("stage metrics fail lint: %v\n%s", errs, b.String())
	}
}

// TestStageTimeoutMetric: a deadline overrun bumps the labeled timeout
// counter alongside the legacy dotted one.
func TestStageTimeoutMetric(t *testing.T) {
	tr := obs.New()
	reg := tr.Registry()
	g := staticGraph(Config{Trace: tr, StageTimeout: 5 * time.Millisecond})
	slow := Add(g, Decl{Name: "slow"}, func(env Env) (int, error) {
		<-env.Ctx.Done()
		return 0, env.Ctx.Err()
	})
	if _, err := slow.Get(context.Background()); err == nil {
		t.Fatal("slow stage did not time out")
	}
	if got := reg.Counter(obs.Label("csdm_stage_timeouts_total", "stage", "slow")); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	if got := tr.Counter("stage.timeouts"); got != 1 {
		t.Fatalf("stage.timeouts = %d, want 1", got)
	}
}

// TestUntracedStageRecordsNothing: with no trace configured the engine
// must not fabricate metrics (the disabled path stays uninstrumented).
func TestUntracedStageRecordsNothing(t *testing.T) {
	g := staticGraph(Config{})
	c := Add(g, Decl{Name: "quiet"}, func(Env) (int, error) { return 1, nil })
	if _, err := c.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
}
