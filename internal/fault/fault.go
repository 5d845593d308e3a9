// Package fault is the pipeline's deterministic fault injector. Every
// hardened stage names an injection site and calls Hit (or guards a
// panic with MaybePanic inside Hit) on its hot path; with no injector
// active the call is a single atomic pointer load, so production runs
// pay nothing. Tests and the hidden csdminer -fault flag activate an
// Injector parsed from a compact spec, and the injector then raises
// errors, panics, or delays at exact, reproducible moments: either the
// n-th time a site is hit or with a seeded per-site probability. Equal
// specs and seeds fault at equal hits, which is what makes
// fault-injection tests assertable rather than flaky.
//
// Spec grammar (comma-separated rules):
//
//	site:kind:trigger[:duration]
//
// where kind is error, panic or delay; trigger is either an integer n
// ("fire on the n-th hit", 1-based), "*" ("fire on every hit"), or
// "p<fraction>" ("fire each hit with probability <fraction>", drawn
// from the injector's seeded RNG); duration applies to delay rules
// (default 50ms). Examples:
//
//	csd.popularity:error:1        error the first time popularity runs
//	exec.task:panic:3             panic on the third pool task
//	csd.merging:delay:*:200ms     every merge pass sleeps 200ms
//	load.poi.row:error:p0.01      ~1% of POI rows fail, seeded
//
// Sites currently wired: the diagram builder's stage boundaries
// (csd.popularity, csd.clustering, csd.purification, csd.merging), the
// streaming delta-apply boundary (csd.ingest — fires at the top of each
// ingested batch, so an injected error proves a failed batch leaves the
// maintainer on its previous generation and is retryable), the
// worker pool (exec.task), and the recognition service's two hardened
// paths — serve.request fires inside every contained request handler
// (so an injected panic exercises per-request isolation, never the
// process) and serve.reload fires at the top of the snapshot hot-swap
// (so an injected error proves a failed reload rolls back to the live
// diagram). Both serve sites are reachable via csdserve's -fault flag.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csdm/internal/obs"
)

// metricsHook is the process-metrics registry, when one is attached.
// Firing a fault is by construction a rare event, so the accounting
// below (labeled counter names) may allocate; the not-firing path never
// touches it beyond the loads Hit already does.
var metricsHook atomic.Pointer[obs.Registry]

// SetMetrics wires fault injection to a process-lifetime metrics
// registry: every fired fault bumps csdm_fault_injected_total
// (pre-declared at zero, so the series is scrapable before — ideally
// instead of — any fault) and a per-site, per-kind detail counter
// csdm_fault_fired_total{site,kind}. Passing nil detaches.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		metricsHook.Store(nil)
		return
	}
	r.Describe("csdm_fault_injected_total", "Faults fired by the deterministic injector.")
	r.Describe("csdm_fault_fired_total", "Faults fired by the deterministic injector, by site and kind.")
	r.Add("csdm_fault_injected_total", 0)
	metricsHook.Store(r)
}

// Kind is the behavior a rule injects at its site.
type Kind int

// The injectable fault kinds.
const (
	// KindError makes Hit return ErrInjected (wrapped with site context).
	KindError Kind = iota
	// KindPanic makes Hit panic with a PanicValue.
	KindPanic
	// KindDelay makes Hit sleep for the rule's duration.
	KindDelay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return "error"
	}
}

// ErrInjected is the sentinel every injected error wraps; tests assert
// provenance with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("injected fault")

// PanicValue is the value an injected panic carries, so recover sites
// can distinguish injected panics from real ones.
type PanicValue struct {
	// Site is the injection site that fired.
	Site string
	// Hit is the 1-based hit count at which it fired.
	Hit int64
}

// String implements fmt.Stringer.
func (v PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", v.Site, v.Hit)
}

// rule is one parsed spec clause.
type rule struct {
	kind  Kind
	nth   int64         // fire on this exact hit; 0 when unused
	every bool          // fire on every hit
	prob  float64       // fire with this probability; 0 when unused
	delay time.Duration // sleep length for KindDelay
}

// Injector holds the active rules and the per-site hit counters. All
// methods are safe for concurrent use and nil-safe: a nil *Injector
// never fires.
type Injector struct {
	rules map[string][]rule

	mu   sync.Mutex
	rng  *rand.Rand
	hits map[string]*int64
}

// Parse builds an Injector from a spec string (see the package comment
// for the grammar). The seed drives every probabilistic rule; equal
// specs and seeds inject identically. An empty spec yields a nil
// injector (inject nothing).
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{
		rules: make(map[string][]rule),
		rng:   rand.New(rand.NewSource(seed)),
		hits:  make(map[string]*int64),
	}
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("fault: bad rule %q: want site:kind:trigger[:duration]", clause)
		}
		site := parts[0]
		if site == "" {
			return nil, fmt.Errorf("fault: bad rule %q: empty site", clause)
		}
		var r rule
		switch parts[1] {
		case "error":
			r.kind = KindError
		case "panic":
			r.kind = KindPanic
		case "delay":
			r.kind = KindDelay
		default:
			return nil, fmt.Errorf("fault: bad rule %q: unknown kind %q", clause, parts[1])
		}
		switch trig := parts[2]; {
		case trig == "*":
			r.every = true
		case strings.HasPrefix(trig, "p"):
			p, err := strconv.ParseFloat(trig[1:], 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("fault: bad rule %q: probability %q", clause, trig)
			}
			r.prob = p
		default:
			n, err := strconv.ParseInt(trig, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad rule %q: trigger %q", clause, trig)
			}
			r.nth = n
		}
		r.delay = 50 * time.Millisecond
		if len(parts) == 4 {
			if r.kind != KindDelay {
				return nil, fmt.Errorf("fault: bad rule %q: duration on a %s rule", clause, r.kind)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad rule %q: duration %q", clause, parts[3])
			}
			r.delay = d
		}
		in.rules[site] = append(in.rules[site], r)
	}
	return in, nil
}

// Hit records one pass through the named site and fires any rule whose
// trigger matches. A matching error rule returns a wrapped ErrInjected;
// a panic rule panics with a PanicValue; a delay rule sleeps and
// returns nil. On a nil injector Hit is a no-op returning nil.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	rules, ok := in.rules[site]
	if !ok {
		return nil
	}
	in.mu.Lock()
	c := in.hits[site]
	if c == nil {
		c = new(int64)
		in.hits[site] = c
	}
	n := atomic.AddInt64(c, 1)
	var fire *rule
	for i := range rules {
		r := &rules[i]
		if r.every || r.nth == n || (r.prob > 0 && in.rng.Float64() < r.prob) {
			fire = r
			break
		}
	}
	in.mu.Unlock()
	if fire == nil {
		return nil
	}
	if r := metricsHook.Load(); r != nil {
		r.Add("csdm_fault_injected_total", 1)
		r.Add(obs.Label("csdm_fault_fired_total", "site", site, "kind", fire.kind.String()), 1)
	}
	switch fire.kind {
	case KindPanic:
		panic(PanicValue{Site: site, Hit: n})
	case KindDelay:
		time.Sleep(fire.delay)
		return nil
	default:
		return fmt.Errorf("fault: %w at %s (hit %d)", ErrInjected, site, n)
	}
}

// Hits returns how many times the named site was reached (fired or
// not); zero on a nil injector or an unknown site.
func (in *Injector) Hits(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.hits[site]
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(c)
}

// active is the process-wide injector. Production never sets it, so the
// fast path of the package-level Hit is one atomic load and a nil test.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector (nil deactivates).
// Tests pair it with a deferred Activate(nil).
func Activate(in *Injector) { active.Store(in) }

// Hit is Injector.Hit on the process-wide injector — the call sites'
// entry point. With no injector active it costs one atomic load.
func Hit(site string) error { return active.Load().Hit(site) }

// IsInjectedPanic reports whether a recovered panic value came from an
// injected fault.
func IsInjectedPanic(v any) bool {
	_, ok := v.(PanicValue)
	return ok
}
