package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"csdm/internal/exec"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/trajectory"
)

// httpError carries a status code out of a handler; anything else that
// isn't a deadline or a panic is a plain 500.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxQueryRadius bounds /v1/units and /v1/patterns range queries so a
// single request cannot scan the whole city.
const maxQueryRadius = 10_000.0

func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/info", s.instrument("info", http.MethodGet, s.handleInfo))
	mux.HandleFunc("/v1/recognize", s.guarded("recognize", http.MethodPost, s.handleRecognize))
	mux.HandleFunc("/v1/units", s.guarded("units", http.MethodGet, s.handleUnits))
	mux.HandleFunc("/v1/patterns", s.guarded("patterns", http.MethodGet, s.handlePatterns))
	mux.HandleFunc("/admin/reload", s.instrument("reload", http.MethodPost, s.handleReload))
}

// handleHealthz is pure liveness: the process is up and the handler
// runs. It stays 200 through draining, so an orchestrator does not
// kill a pod that is still finishing in-flight requests.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is routability: 200 only while a snapshot is live and
// draining has not begun. It flips to 503 the instant Drain starts.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.snap.Load() == nil:
		http.Error(w, "no snapshot loaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// instrument wraps a handler with method filtering, request counting,
// latency observation and per-request containment — everything in the
// robustness envelope except admission control. Routes that must work
// while the service slots are saturated (info, admin reload) use it
// directly; data-path routes go through guarded.
func (s *Server) instrument(route, method string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	rm := s.met.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.met.request(rm)
		start := time.Now()
		ctx, cancel := requestContext(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		err := contain(func() error { return h(ctx, w, r) })
		rm.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.fail(w, err)
		}
	}
}

// guarded is instrument plus admission control: the request first
// claims an admission slot (or is shed with 503 + Retry-After), and
// only then runs under the deadline and panic containment.
func (s *Server) guarded(route, method string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	rm := s.met.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.met.request(rm)
		if s.snap.Load() == nil {
			http.Error(w, "no snapshot loaded", http.StatusServiceUnavailable)
			return
		}
		queued := time.Now()
		if err := s.adm.acquire(r.Context()); err != nil {
			if errors.Is(err, errShed) {
				s.met.shed()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
				http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
			}
			// The client gave up while queued; nothing useful to write.
			return
		}
		s.met.inflight(s.adm.inflight.Load())
		defer func() {
			s.adm.release()
			s.met.inflight(s.adm.inflight.Load())
		}()

		start := time.Now()
		s.met.phase(phaseAdmission, start.Sub(queued))
		ctx, cancel := requestContext(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		err := contain(func() error { return h(ctx, w, r) })
		rm.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.fail(w, err)
		}
	}
}

// fail classifies a handler error onto the wire and the counters. The
// response write is best-effort: a handler that panicked after writing
// its status line cannot be un-written, but the containment guarantees
// the connection goroutine survives either way.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var he *httpError
	var pe *exec.PanicError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.code)
	case errors.As(err, &pe):
		s.met.panicked()
		s.cfg.logf("request panic contained: %v", pe.Value)
		http.Error(w, "internal error", http.StatusInternalServerError)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timedOut()
		http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
	default:
		s.met.errored()
		http.Error(w, "internal error: "+err.Error(), http.StatusInternalServerError)
	}
}

func requestContext(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// pointJSON is the wire form of a coordinate.
type pointJSON struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
}

// semanticsNames renders a semantic property as its major-category
// names (empty slice, not null, for the unknown property).
func semanticsNames(s poi.Semantics) []string {
	majors := s.Majors()
	names := make([]string, 0, len(majors))
	for _, m := range majors {
		names = append(names, m.String())
	}
	return names
}

// handleInfo reports the live snapshot: generation, sizes, extent.
// Clients read the extent to sample query points inside the served
// city.
func (s *Server) handleInfo(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	snap := s.snap.Load()
	if snap == nil {
		return &httpError{code: http.StatusServiceUnavailable, msg: "no snapshot loaded"}
	}
	return writeJSON(w, map[string]any{
		"generation":                snap.Generation,
		"diagram_generation":        snap.DiagramGeneration,
		"diagram_parent_generation": snap.DiagramParent,
		"loaded_at":                 snap.LoadedAt.UTC().Format(time.RFC3339),
		"units":                     len(snap.Diagram.Units),
		"pois":                      len(snap.Diagram.POIs),
		"patterns":                  len(s.Patterns()),
		"extent": map[string]pointJSON{
			"min": {Lon: snap.Extent.Min.Lon, Lat: snap.Extent.Min.Lat},
			"max": {Lon: snap.Extent.Max.Lon, Lat: snap.Extent.Max.Lat},
		},
	})
}

// recognizeRequest is the /v1/recognize body: the stay points of one
// journey (or a single stay) to annotate.
type recognizeRequest struct {
	Stays []pointJSON `json:"stays"`
}

// decodeRecognizeRequest reads body as exactly one JSON value: one
// that is malformed or carries anything but whitespace after the value
// is 400. It defines the contract for every body scanStays does not
// take.
func decodeRecognizeRequest(body io.Reader) (recognizeRequest, error) {
	var req recognizeRequest
	dec := json.NewDecoder(body)
	err := dec.Decode(&req)
	if err == nil {
		switch err = dec.Decode(&json.RawMessage{}); err {
		case io.EOF:
			return req, nil
		case nil:
			err = errors.New("trailing data after the JSON value")
		default:
			err = fmt.Errorf("trailing data after the JSON value: %w", err)
		}
	}
	return req, badRequest("bad request body: %v", err)
}

// decodeStays parses a /v1/recognize body into dst[:0]: a canonical
// body through scanStays, any other through decodeRecognizeRequest.
// It refuses a body with no stays or with an invalid coordinate.
func decodeStays(body []byte, dst []trajectory.StayPoint) ([]trajectory.StayPoint, error) {
	stays, ok := scanStays(body, dst[:0])
	if !ok {
		req, err := decodeRecognizeRequest(bytes.NewReader(body))
		if err != nil {
			return stays, err
		}
		stays = stays[:0]
		for _, p := range req.Stays {
			stays = append(stays, trajectory.StayPoint{P: geo.Point{Lon: p.Lon, Lat: p.Lat}})
		}
	}
	if len(stays) == 0 {
		return stays, badRequest("no stays to recognize")
	}
	for i, st := range stays {
		if err := st.P.Check(); err != nil {
			return stays, badRequest("stay %d: %v", i, err)
		}
	}
	return stays, nil
}

// handleRecognize annotates the posted stay points against the live
// snapshot (Algorithm 3), loading the snapshot exactly once so a
// concurrent hot-swap cannot split one journey across generations.
// The body is read whole into a pooled buffer, so a body over
// MaxBodyBytes is always 413, and the response is appended over it.
func (s *Server) handleRecognize(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	snap := s.snap.Load()
	if snap == nil {
		return &httpError{code: http.StatusServiceUnavailable, msg: "no snapshot loaded"}
	}
	t0 := time.Now()
	buf := s.bufs.Get().(*recognizeBuf)
	defer s.putBuf(buf)
	var err error
	buf.b, err = readBody(buf.b, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	buf.stays, err = decodeStays(buf.b, buf.stays)
	if err != nil {
		return err
	}
	t1 := time.Now()
	s.met.phase(phaseDecode, t1.Sub(t0))

	sc := s.scratch.Get().(*recognize.Scratch)
	defer s.scratch.Put(sc)
	if err := recognize.RecognizeStays(ctx, buf.stays, snap.Rec, sc); err != nil {
		return err
	}
	t2 := time.Now()
	s.met.phase(phaseRecognize, t2.Sub(t1))

	buf.b = appendRecognizeResponse(buf.b[:0], snap.Generation, buf.stays)
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(buf.b)
	s.met.phase(phaseEncode, time.Since(t2))
	return err
}

// putBuf returns a recognize buffer to the pool unless a large request
// grew it past the caps.
func (s *Server) putBuf(buf *recognizeBuf) {
	if cap(buf.b) <= maxPooledBytes && cap(buf.stays) <= maxPooledStays {
		s.bufs.Put(buf)
	}
}

// queryPoint parses the lon/lat[/radius] query parameters shared by
// the range-query routes. fallback is the radius when the parameter is
// absent.
func queryPoint(r *http.Request, fallback float64) (geo.Point, float64, error) {
	q := r.URL.Query()
	lon, err := strconv.ParseFloat(q.Get("lon"), 64)
	if err != nil {
		return geo.Point{}, 0, badRequest("bad or missing lon")
	}
	lat, err := strconv.ParseFloat(q.Get("lat"), 64)
	if err != nil {
		return geo.Point{}, 0, badRequest("bad or missing lat")
	}
	if err := geo.CheckCoord(lon, lat); err != nil {
		return geo.Point{}, 0, badRequest("%v", err)
	}
	radius := fallback
	if v := q.Get("radius"); v != "" {
		radius, err = strconv.ParseFloat(v, 64)
		if err != nil || radius <= 0 {
			return geo.Point{}, 0, badRequest("bad radius %q", v)
		}
	}
	if radius > maxQueryRadius {
		return geo.Point{}, 0, badRequest("radius %g exceeds the %g m cap", radius, maxQueryRadius)
	}
	return geo.Point{Lon: lon, Lat: lat}, radius, nil
}

type unitJSON struct {
	ID        int       `json:"id"`
	Center    pointJSON `json:"center"`
	Semantics []string  `json:"semantics"`
	Members   int       `json:"members"`
}

// handleUnits returns the semantic units with a member POI within
// radius meters of the query point (default radius: the snapshot's
// R3σ), ordered by unit ID.
func (s *Server) handleUnits(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	snap := s.snap.Load()
	if snap == nil {
		return &httpError{code: http.StatusServiceUnavailable, msg: "no snapshot loaded"}
	}
	d := snap.Diagram
	p, radius, err := queryPoint(r, d.Params.R3Sigma)
	if err != nil {
		return err
	}
	members := d.MembersWithinAppend(p, radius, nil)
	seen := make(map[int]bool, 8)
	units := make([]unitJSON, 0, 8)
	for _, i := range members {
		uid := d.UnitOf(i)
		if uid < 0 || seen[uid] {
			continue
		}
		seen[uid] = true
		u := d.Units[uid]
		units = append(units, unitJSON{
			ID:        u.ID,
			Center:    pointJSON{Lon: u.Center.Lon, Lat: u.Center.Lat},
			Semantics: semanticsNames(u.Semantics),
			Members:   len(u.Members),
		})
	}
	sort.Slice(units, func(a, b int) bool { return units[a].ID < units[b].ID })
	return writeJSON(w, map[string]any{"generation": snap.Generation, "units": units})
}

type patternStayJSON struct {
	Lon       float64  `json:"lon"`
	Lat       float64  `json:"lat"`
	Semantics []string `json:"semantics"`
}

type patternJSONOut struct {
	Support int               `json:"support"`
	Stays   []patternStayJSON `json:"stays"`
}

// handlePatterns lists the mined patterns with a representative stay
// within radius meters of the query point, strongest support first.
// With no pattern set loaded the route answers an empty list, not an
// error — the capability is optional per deployment.
func (s *Server) handlePatterns(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	snap := s.snap.Load()
	if snap == nil {
		return &httpError{code: http.StatusServiceUnavailable, msg: "no snapshot loaded"}
	}
	p, radius, err := queryPoint(r, snap.Diagram.Params.R3Sigma)
	if err != nil {
		return err
	}
	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 || limit > 1000 {
			return badRequest("bad limit %q", v)
		}
	}
	var hits []patternJSONOut
	for pi, pat := range s.Patterns() {
		if pi%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		near := false
		for _, st := range pat.Stays {
			if geo.Haversine(st.P, p) <= radius {
				near = true
				break
			}
		}
		if !near {
			continue
		}
		out := patternJSONOut{Support: pat.Support, Stays: make([]patternStayJSON, len(pat.Stays))}
		for k, st := range pat.Stays {
			out.Stays[k] = patternStayJSON{Lon: st.P.Lon, Lat: st.P.Lat, Semantics: semanticsNames(st.S)}
		}
		hits = append(hits, out)
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Support > hits[b].Support })
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return writeJSON(w, map[string]any{"generation": snap.Generation, "patterns": hits, "count": len(hits)})
}

// handleReload triggers a validated hot-swap. A failed reload answers
// 500 with the validation error while the old snapshot keeps serving.
func (s *Server) handleReload(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	snap, err := s.Reload()
	if err != nil {
		return &httpError{code: http.StatusInternalServerError, msg: fmt.Sprintf("reload failed, previous snapshot still live: %v", err)}
	}
	return writeJSON(w, map[string]any{
		"generation": snap.Generation,
		"units":      len(snap.Diagram.Units),
		"pois":       len(snap.Diagram.POIs),
	})
}
