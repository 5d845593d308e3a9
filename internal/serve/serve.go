// Package serve is the online recognition service over a built City
// Semantic Diagram: it loads a framed .csdf snapshot and answers
// semantic queries — annotate a stay point or journey (Algorithm 3),
// look up the semantic units near a location, list mined patterns near
// a location — over HTTP at high QPS, wrapped in a full robustness
// envelope:
//
//   - Admission control. A bounded semaphore sized from
//     Config.AdmissionLimit plus a small wait queue caps the requests in
//     the system; when both are full the server sheds load immediately
//     with 503 + Retry-After instead of queuing unboundedly
//     (csdm_serve_shed_total counts the shed requests).
//   - Per-request containment. Every request runs under its own
//     deadline (Config.RequestTimeout, propagated via context into the
//     recognition loop), a recover wrapper that converts handler panics
//     into *exec.PanicError — 500 to the caller, counter bumped, server
//     stays up — and a per-request recognize.Scratch and body buffer
//     from sync.Pools, so steady-state recognition allocates nothing
//     and /v1/recognize decodes and encodes without reflection
//     (codec.go). The "serve.request" fault site fires inside the
//     containment, so injected errors and panics take exactly the
//     paths real failures take.
//   - Validated hot-swap with rollback. Reload re-reads the snapshot
//     through the framed CRC path, sanity-checks it (non-empty units,
//     extent overlap with the live diagram), and only then swaps an
//     atomic.Pointer[Snapshot] — readers never block and never observe a
//     torn diagram. A corrupt or failed-validation snapshot keeps the
//     old diagram live and bumps csdm_serve_reload_failures_total. The
//     "serve.reload" fault site makes the rollback path testable
//     deterministically.
//   - Lifecycle. /healthz is pure liveness; /readyz flips to 503 the
//     moment draining begins, so a load balancer stops routing before
//     connections close; Drain bounds connection draining with a
//     timeout and reports whether every in-flight request finished.
package serve

import (
	"errors"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/exec"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/recognize"
)

// Config parameterizes the recognition server.
type Config struct {
	// AdmissionLimit caps the requests in service concurrently — the
	// bounded semaphore's size. Zero or negative means runtime.NumCPU().
	AdmissionLimit int
	// QueueSlack is the wait-queue depth beyond the admission limit:
	// requests that find every service slot busy wait here, and a
	// request that finds the queue full too is shed with 503. Negative
	// means "equal to the admission limit"; zero disables waiting
	// entirely (busy server sheds immediately).
	QueueSlack int
	// RequestTimeout bounds each request with its own deadline,
	// propagated via context into the recognition loop. Zero disables
	// per-request deadlines.
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint sent with every shed response;
	// zero means one second (the header is always present — clients and
	// tests key off it to distinguish shedding from failure).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (a larger one is 413); zero
	// means 1 MiB.
	MaxBodyBytes int64
	// Registry receives the serve metric families (nil records
	// nothing). Every family is pre-declared at zero on construction so
	// /metrics exposes them before the first request.
	Registry *obs.Registry
	// Logf receives status messages (reloads, drain). Nil drops them.
	Logf func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// withDefaults normalizes the zero values.
func (c Config) withDefaults() Config {
	if c.AdmissionLimit <= 0 {
		c.AdmissionLimit = runtime.NumCPU()
	}
	if c.QueueSlack < 0 {
		c.QueueSlack = c.AdmissionLimit
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Snapshot is one immutable generation of the served state: the
// diagram, its recognizer, and the precomputed extent the reload
// validator checks replacements against. Requests load the current
// snapshot once and use only it, so a concurrent hot-swap can never
// show one request two generations.
type Snapshot struct {
	// Diagram is the loaded City Semantic Diagram (immutable).
	Diagram *csd.Diagram
	// Rec is the Algorithm 3 recognizer over Diagram.
	Rec *recognize.CSDRecognizer
	// Extent is Diagram.Extent(), cached at swap time.
	Extent geo.Rect
	// Generation counts swaps, starting at 1 for the initial load. It
	// is the server's own counter — distinct from the diagram's lineage
	// generation below, which can stay constant across swaps (reloading
	// the same file) or jump (catching up on a stream).
	Generation int64
	// DiagramGeneration is the diagram's lineage generation from the
	// .csdf framing header (0 for one-shot builds);
	// DiagramParent is the generation it was derived from. A watcher
	// following a streaming ingester sees these advance with each
	// published delta.
	DiagramGeneration int64
	DiagramParent     int64
	// LoadedAt is when this snapshot went live.
	LoadedAt time.Time
}

// Server is the recognition service. Construct with New, install a
// diagram with LoadSnapshot (or UseDiagram in tests), then expose
// Handler on a listener — or use Start/Drain for the managed lifecycle.
type Server struct {
	cfg Config
	adm *admission
	met *metricsSet
	mux *http.ServeMux

	snap     atomic.Pointer[Snapshot]
	patterns atomic.Pointer[[]pattern.Pattern]
	draining atomic.Bool

	// reloadMu serializes LoadSnapshot/Reload; request paths never
	// take it. snapshotPath is the last loaded snapshot file;
	// patternsPath, when set, is re-read inside every reload so the
	// pattern set swaps with the diagram; currentDir, when set, makes
	// every reload re-resolve the checkpoint directory's CURRENT
	// pointer first (the streaming-ingestion publish protocol).
	reloadMu     sync.Mutex
	snapshotPath string
	patternsPath string
	currentDir   string

	scratch sync.Pool // *recognize.Scratch
	bufs    sync.Pool // *recognizeBuf

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New builds a server with no snapshot installed: /healthz answers,
// /readyz reports unready, and every recognition route answers 503
// until LoadSnapshot or UseDiagram installs a diagram. All metric
// families are seeded at zero immediately.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.AdmissionLimit, cfg.QueueSlack),
		met: newMetrics(cfg.Registry),
	}
	s.scratch.New = func() any { return new(recognize.Scratch) }
	s.bufs.New = func() any { return &recognizeBuf{b: make([]byte, 0, 1024)} }
	s.mux = http.NewServeMux()
	s.routes(s.mux)
	return s
}

// Mux returns the server's route mux, so callers can mount additional
// endpoints (the obshttp debug surface) next to the recognition API.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// Handler returns the HTTP handler serving the recognition API.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the live snapshot (nil before the first load).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Ready reports whether the server would pass /readyz: a snapshot is
// live and draining has not begun.
func (s *Server) Ready() bool { return s.snap.Load() != nil && !s.draining.Load() }

// install atomically swaps d in as the live snapshot.
func (s *Server) install(d *csd.Diagram) *Snapshot {
	var gen int64 = 1
	if old := s.snap.Load(); old != nil {
		gen = old.Generation + 1
	}
	snap := &Snapshot{
		Diagram:           d,
		Rec:               recognize.NewCSDRecognizer(d),
		Extent:            d.Extent(),
		Generation:        gen,
		DiagramGeneration: d.Generation,
		DiagramParent:     d.ParentGeneration,
		LoadedAt:          time.Now(),
	}
	s.snap.Store(snap)
	s.met.setGeneration(gen, d.Generation, len(d.Units))
	return snap
}

// UseDiagram installs an already-built diagram directly (tests and
// benchmarks); production paths go through LoadSnapshot so the framed
// CRC validation is never bypassed.
func (s *Server) UseDiagram(d *csd.Diagram) { s.install(d) }

// LoadSnapshot reads, validates and installs the snapshot at path, and
// remembers the path for Reload. Unlike Reload, a failed initial load
// is fatal to the caller — there is no previous diagram to keep.
func (s *Server) LoadSnapshot(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	d, err := csd.ReadFile(path)
	if err != nil {
		return err
	}
	if err := validateDiagram(d); err != nil {
		return err
	}
	s.snapshotPath = path
	snap := s.install(d)
	s.cfg.logf("snapshot %s live: generation %d, %d units, %d POIs",
		path, snap.Generation, len(d.Units), len(d.POIs))
	return nil
}

// SetPatterns installs the mined pattern set served by /v1/patterns.
func (s *Server) SetPatterns(ps []pattern.Pattern) { s.patterns.Store(&ps) }

// LoadPatterns reads the pattern file, installs it, and remembers the
// path: every subsequent Reload re-reads it inside the same validated
// swap, so the diagram and its patterns change together — and a reload
// whose pattern file is corrupt rolls the whole swap back, keeping
// both the old diagram and the old patterns live.
func (s *Server) LoadPatterns(path string) error {
	ps, err := readPatternsFile(path)
	if err != nil {
		return err
	}
	s.reloadMu.Lock()
	s.patternsPath = path
	s.reloadMu.Unlock()
	s.SetPatterns(ps)
	s.cfg.logf("serving %d mined patterns from %s", len(ps), path)
	return nil
}

// LoadCurrent resolves the checkpoint directory's CURRENT pointer
// (the streaming ingester's atomic publish) and loads the snapshot it
// names. The directory is remembered: every Reload re-resolves
// CURRENT first, so a SIGHUP — or StartWatch — follows the lineage to
// whatever generation is published now.
//
// A directory with no CURRENT yet is the normal cold-start race —
// csdserve came up before the ingester published its first generation.
// That is not an error: the directory is still remembered (so the
// watcher adopts the first generation the moment it lands), the
// csdm_serve_watch_pending gauge goes to 1, and the server answers 503
// on recognition routes until then.
func (s *Server) LoadCurrent(dir string) error {
	path, err := ckpt.ResolveCurrent(dir)
	if err != nil {
		if !errors.Is(err, ckpt.ErrNoCurrent) {
			return err
		}
		s.reloadMu.Lock()
		s.currentDir = dir
		s.reloadMu.Unlock()
		s.met.watchPending(true)
		s.cfg.logf("no generation published in %s yet; serving unready until one lands", dir)
		return nil
	}
	if err := s.LoadSnapshot(path); err != nil {
		return err
	}
	s.reloadMu.Lock()
	s.currentDir = dir
	s.reloadMu.Unlock()
	return nil
}

// Patterns returns the installed pattern set (nil when none).
func (s *Server) Patterns() []pattern.Pattern {
	if p := s.patterns.Load(); p != nil {
		return *p
	}
	return nil
}

// contain runs fn under the per-request containment: the serve.request
// fault site fires first (so injected errors and panics exercise the
// real failure paths), and a panicking fn is converted to an
// *exec.PanicError instead of unwinding the connection goroutine.
func contain(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = exec.NewPanicError(v)
		}
	}()
	if err := fault.Hit("serve.request"); err != nil {
		return err
	}
	return fn()
}

// Start listens on addr and serves the handler in the background,
// returning the bound address (so addr may use port 0). Pair with
// Drain for a bounded graceful shutdown.
func (s *Server) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			s.cfg.logf("serve: %v", err)
		}
	}()
	return l.Addr().String(), nil
}

// Drain performs the graceful shutdown sequence: flip /readyz to 503
// (so load balancers stop routing), stop accepting connections, and
// wait up to timeout for in-flight requests to finish. It returns nil
// when every request drained, or the shutdown context's error when the
// timeout expired with requests still running. Safe to call without
// Start (it only flips readiness).
func (s *Server) Drain(timeout time.Duration) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := timeoutContext(timeout)
	defer cancel()
	return srv.Shutdown(ctx)
}
