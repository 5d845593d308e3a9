package serve

import (
	"time"

	"csdm/internal/obs"
)

// The serve metric families. Every one is pre-declared at zero when
// the server is constructed, so a scrape taken before the first
// request (or the first shed, panic, or reload failure) already
// exposes the full family set — cmd/promlint -require enforces this
// in CI.
const (
	mRequests       = "csdm_serve_requests_total"
	mShed           = "csdm_serve_shed_total"
	mPanics         = "csdm_serve_panics_total"
	mErrors         = "csdm_serve_errors_total"
	mTimeouts       = "csdm_serve_timeouts_total"
	mReloads        = "csdm_serve_reloads_total"
	mReloadFailures = "csdm_serve_reload_failures_total"
	mInflight       = "csdm_serve_inflight"
	mGeneration     = "csdm_serve_snapshot_generation"
	mDiagramGen     = "csdm_serve_diagram_generation"
	mUnits          = "csdm_serve_snapshot_units"
	mWatchPending   = "csdm_serve_watch_pending"
	famReqSeconds   = "csdm_serve_request_seconds"
	famPhaseSeconds = "csdm_serve_phase_seconds"
)

// routeNames lists every instrumented route, so the per-route request
// histograms exist (at zero observations) from process start.
var routeNames = []string{"recognize", "units", "patterns", "info", "reload"}

// phase is one slice of a request's time in csdm_serve_phase_seconds.
type phase int

const (
	// phaseAdmission is the wait for an admission slot, on every
	// guarded route.
	phaseAdmission phase = iota
	// phaseDecode, phaseRecognize and phaseEncode split a
	// /v1/recognize request: read and parse the body, run Algorithm 3,
	// append and write the response.
	phaseDecode
	phaseRecognize
	phaseEncode
	numPhases
)

var phaseNames = [numPhases]string{"admission", "decode", "recognize", "encode"}

// routeMetrics is one route's pre-resolved series: the labelled
// request counter name, built once, and the latency histogram.
type routeMetrics struct {
	requests string
	latency  *obs.Histogram
}

// metricsSet is the server's pre-resolved metrics: counters by name
// (the registry's atomic fast path), one latency histogram per route
// and one per request phase, so the per-request cost is a few time
// reads and atomic bumps, never a label build or a map lookup on a
// histogram. All of it is nil-safe — with no registry the histograms
// are nil (no-op Observe) and the counter adds return immediately.
type metricsSet struct {
	reg    *obs.Registry
	routes map[string]*routeMetrics
	phases [numPhases]*obs.Histogram
}

func newMetrics(reg *obs.Registry) *metricsSet {
	m := &metricsSet{reg: reg, routes: make(map[string]*routeMetrics, len(routeNames))}
	reg.Describe(mRequests, "Requests received by the recognition service, by route.")
	reg.Describe(mShed, "Requests shed by admission control with 503 + Retry-After.")
	reg.Describe(mPanics, "Handler panics contained per-request (500 to the caller, server stays up).")
	reg.Describe(mErrors, "Requests that failed with a 5xx other than shedding.")
	reg.Describe(mTimeouts, "Requests that exceeded the per-request deadline.")
	reg.Describe(mReloads, "Snapshot hot-swaps that passed validation and went live.")
	reg.Describe(mReloadFailures, "Snapshot reloads rejected (corrupt file or failed validation); the prior diagram stayed live.")
	reg.Describe(mInflight, "Requests currently holding an admission slot.")
	reg.Describe(mGeneration, "Generation of the live snapshot (increments on every successful swap).")
	reg.Describe(mDiagramGen, "Diagram lineage generation of the live snapshot, from the .csdf framing header (0 for one-shot builds).")
	reg.Describe(mUnits, "Semantic units in the live snapshot.")
	reg.Describe(mWatchPending, "1 while the watcher is waiting for the checkpoint dir's first published generation, else 0.")
	reg.Describe(famReqSeconds, "Latency of recognition-service requests, by route.")
	reg.Describe(famPhaseSeconds, "Time spent per request phase: admission wait (every guarded route), then decode, recognize and encode (/v1/recognize).")
	// Seed every family at zero so /metrics is complete before the
	// first event of each kind.
	for _, name := range []string{mShed, mPanics, mErrors, mTimeouts, mReloads, mReloadFailures} {
		reg.Add(name, 0)
	}
	reg.SetGauge(mInflight, 0)
	reg.SetGauge(mGeneration, 0)
	reg.SetGauge(mDiagramGen, 0)
	reg.SetGauge(mUnits, 0)
	reg.SetGauge(mWatchPending, 0)
	for _, route := range routeNames {
		rm := &routeMetrics{
			requests: obs.Label(mRequests, "route", route),
			latency:  reg.Histogram(obs.Label(famReqSeconds, "route", route), obs.DefBuckets),
		}
		reg.Add(rm.requests, 0)
		m.routes[route] = rm
	}
	for p, name := range phaseNames {
		m.phases[p] = reg.Histogram(obs.Label(famPhaseSeconds, "phase", name), obs.DefBuckets)
	}
	return m
}

// route returns the named route's series; the route wrappers resolve
// it once, when the route is registered.
func (m *metricsSet) route(name string) *routeMetrics {
	rm, ok := m.routes[name]
	if !ok {
		panic("serve: unregistered route " + name)
	}
	return rm
}

func (m *metricsSet) request(rm *routeMetrics) { m.reg.Add(rm.requests, 1) }
func (m *metricsSet) shed()                    { m.reg.Add(mShed, 1) }
func (m *metricsSet) panicked()                { m.reg.Add(mPanics, 1) }
func (m *metricsSet) errored()                 { m.reg.Add(mErrors, 1) }
func (m *metricsSet) timedOut()                { m.reg.Add(mTimeouts, 1) }
func (m *metricsSet) reloaded()                { m.reg.Add(mReloads, 1) }
func (m *metricsSet) reloadFailed()            { m.reg.Add(mReloadFailures, 1) }
func (m *metricsSet) inflight(n int64)         { m.reg.SetGauge(mInflight, float64(n)) }
func (m *metricsSet) phase(p phase, d time.Duration) {
	m.phases[p].Observe(d.Seconds())
}
func (m *metricsSet) watchPending(pending bool) {
	v := 0.0
	if pending {
		v = 1.0
	}
	m.reg.SetGauge(mWatchPending, v)
}
func (m *metricsSet) setGeneration(gen, diagramGen int64, units int) {
	m.reg.SetGauge(mGeneration, float64(gen))
	m.reg.SetGauge(mDiagramGen, float64(diagramGen))
	m.reg.SetGauge(mUnits, float64(units))
}
