package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"siteonly",
		"a:b",
		"a:explode:1",
		"a:error:0",
		"a:error:-2",
		"a:error:pnope",
		"a:error:p1.5",
		"a:error:1:50ms", // duration on a non-delay rule
		"a:delay:1:nope",
		":error:1",
		"a:error:1:50ms:extra",
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseEmptySpecIsNil(t *testing.T) {
	in, err := Parse("  ", 1)
	if err != nil || in != nil {
		t.Fatalf("Parse(blank) = %v, %v", in, err)
	}
	// And a nil injector never fires.
	if err := in.Hit("anything"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if n := in.Hits("anything"); n != 0 {
		t.Fatalf("nil injector counted %d hits", n)
	}
}

func TestNthHitError(t *testing.T) {
	in, err := Parse("s:error:3", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := in.Hit("s")
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: not ErrInjected: %v", i, err)
		}
	}
	if got := in.Hits("s"); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
	if got := in.Hits("other"); got != 0 {
		t.Fatalf("unknown site Hits = %d", got)
	}
}

func TestEveryHitAndUnlistedSite(t *testing.T) {
	in, _ := Parse("s:error:*", 1)
	for i := 0; i < 3; i++ {
		if err := in.Hit("s"); !errors.Is(err, ErrInjected) {
			t.Fatalf("every-hit rule missed hit %d: %v", i, err)
		}
	}
	if err := in.Hit("unlisted"); err != nil {
		t.Fatalf("unlisted site fired: %v", err)
	}
}

func TestInjectedPanicCarriesSiteAndHit(t *testing.T) {
	in, _ := Parse("s:panic:2", 1)
	if err := in.Hit("s"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if !IsInjectedPanic(v) {
			t.Fatalf("recovered %v, want PanicValue", v)
		}
		pv := v.(PanicValue)
		if pv.Site != "s" || pv.Hit != 2 {
			t.Fatalf("PanicValue = %+v", pv)
		}
	}()
	in.Hit("s")
	t.Fatal("second hit did not panic")
}

func TestDelayRuleSleeps(t *testing.T) {
	in, _ := Parse("s:delay:1:30ms", 1)
	t0 := time.Now()
	if err := in.Hit("s"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("delay rule slept %v, want ≥ 30ms", d)
	}
}

// TestProbabilisticDeterminism pins the seeded-RNG contract: equal spec
// and seed fire on the same hits.
func TestProbabilisticDeterminism(t *testing.T) {
	fire := func(seed int64) []bool {
		in, err := Parse("s:error:p0.3", seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 50)
		for i := range out {
			out[i] = in.Hit("s") != nil
		}
		return out
	}
	a, b := fire(7), fire(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across equal seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p0.3 fired %d/%d times", fired, len(a))
	}
}

func TestActivateGlobal(t *testing.T) {
	in, _ := Parse("g:error:1", 1)
	Activate(in)
	defer Activate(nil)
	if err := Hit("g"); !errors.Is(err, ErrInjected) {
		t.Fatalf("global Hit = %v", err)
	}
	Activate(nil)
	if err := Hit("g"); err != nil {
		t.Fatalf("deactivated injector fired: %v", err)
	}
}

func TestConcurrentHitsCountExactly(t *testing.T) {
	in, _ := Parse("s:error:1000000", 1)
	done := make(chan struct{})
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				in.Hit("s")
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := in.Hits("s"); got != workers*per {
		t.Fatalf("Hits = %d, want %d", got, workers*per)
	}
}
