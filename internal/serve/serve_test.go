package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"csdm/internal/csd"
	"csdm/internal/fault"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/pattern"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

var origin = geo.Point{Lon: 121.47, Lat: 31.23}
var proj = geo.NewProjection(origin)

func at(x, y float64) geo.Point { return proj.ToPoint(geo.Meters{X: x, Y: y}) }

// testDiagram builds a small two-unit city around origin: shops to the
// west, restaurants to the east, popularity skewed toward the shops.
func testDiagram(tb testing.TB) *csd.Diagram { return testDiagramAt(tb, origin) }

// testDiagramAt builds the same city centered elsewhere — the reload
// validator's "different city" case.
func testDiagramAt(tb testing.TB, center geo.Point) *csd.Diagram {
	tb.Helper()
	pr := geo.NewProjection(center)
	pt := func(x, y float64) geo.Point { return pr.ToPoint(geo.Meters{X: x, Y: y}) }
	rng := rand.New(rand.NewSource(7))
	var pois []poi.POI
	var id int64 = 1
	for i := 0; i < 10; i++ {
		pois = append(pois, poi.POI{ID: id, Location: pt(-40+rng.NormFloat64()*5, rng.NormFloat64()*5), Minor: poi.MinorsOf(poi.ShopMarket)[0]})
		id++
	}
	for i := 0; i < 6; i++ {
		pois = append(pois, poi.POI{ID: id, Location: pt(60+rng.NormFloat64()*5, rng.NormFloat64()*5), Minor: poi.MinorsOf(poi.Restaurant)[0]})
		id++
	}
	var stays []geo.Point
	for i := 0; i < 120; i++ {
		stays = append(stays, pt(-40+rng.NormFloat64()*15, rng.NormFloat64()*15))
	}
	for i := 0; i < 15; i++ {
		stays = append(stays, pt(60+rng.NormFloat64()*15, rng.NormFloat64()*15))
	}
	return csd.Build(pois, stays, csd.DefaultParams())
}

// writeSnapshot writes d as a framed .csdf file and returns its path.
func writeSnapshot(tb testing.TB, dir string, d *csd.Diagram) string {
	tb.Helper()
	path := filepath.Join(dir, "snap.csdf")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Write(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

func newTestServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s := New(cfg)
	s.UseDiagram(testDiagram(tb))
	return s
}

func recognizeBody(tb testing.TB, pts ...geo.Point) *bytes.Reader {
	tb.Helper()
	stays := make([]pointJSON, len(pts))
	for i, p := range pts {
		stays[i] = pointJSON{Lon: p.Lon, Lat: p.Lat}
	}
	b, err := json.Marshal(map[string][]pointJSON{"stays": stays})
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.NewReader(b)
}

func TestHealthAndReadiness(t *testing.T) {
	s := New(Config{})

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	// No snapshot yet: alive but not ready, data routes answer 503.
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before load = %d, want 503", w.Code)
	}
	if w := get("/v1/units?lon=121.47&lat=31.23"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/units before load = %d, want 503", w.Code)
	}

	s.UseDiagram(testDiagram(t))
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz after load = %d, want 200", w.Code)
	}

	// Drain flips readiness immediately; liveness stays green.
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", w.Code)
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", w.Code)
	}
}

func TestRecognizeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/recognize", recognizeBody(t, origin, at(5000, 5000)))
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/recognize = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Generation int64 `json:"generation"`
		Stays      []struct {
			Semantics []string `json:"semantics"`
		} `json:"stays"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 {
		t.Fatalf("generation = %d, want 1", resp.Generation)
	}
	if len(resp.Stays) != 2 {
		t.Fatalf("stays = %d, want 2", len(resp.Stays))
	}
	// The stay at the popular shop unit gets shop semantics; the stay
	// 5 km out in the void gets none.
	found := false
	for _, name := range resp.Stays[0].Semantics {
		if name == poi.ShopMarket.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("stay at origin semantics = %v, want %s", resp.Stays[0].Semantics, poi.ShopMarket)
	}
	if len(resp.Stays[1].Semantics) != 0 {
		t.Fatalf("remote stay semantics = %v, want empty", resp.Stays[1].Semantics)
	}
}

func TestRecognizeRejectsBadInput(t *testing.T) {
	const maxBody = 256
	s := newTestServer(t, Config{MaxBodyBytes: maxBody})
	valid := fmt.Sprintf(`{"stays":[{"lon":%f,"lat":%f}]}`, origin.Lon, origin.Lat)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty stays", `{"stays":[]}`, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"bad coordinate", `{"stays":[{"lon":400,"lat":31.2}]}`, http.StatusBadRequest},
		{"trailing garbage", valid + "garbage", http.StatusBadRequest},
		{"trailing value", valid + valid, http.StatusBadRequest},
		{"value over the limit", `{"stays":` + strings.Repeat(" ", maxBody) + `[]}`, http.StatusRequestEntityTooLarge},
		{"trailing data over the limit", valid + strings.Repeat(" ", maxBody), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/recognize", strings.NewReader(tc.body))
		s.Handler().ServeHTTP(w, req)
		if w.Code != tc.code {
			t.Errorf("%s: code = %d, want %d", tc.name, w.Code, tc.code)
		}
	}
	// Trailing whitespace is not trailing data.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", strings.NewReader(valid+"\n")))
	if w.Code != http.StatusOK {
		t.Fatalf("valid body with a trailing newline = %d: %s", w.Code, w.Body.String())
	}
	// Wrong method is rejected before any work.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/recognize", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/recognize = %d, want 405", w.Code)
	}
}

// FuzzRecognizeBody posts arbitrary bodies to /v1/recognize. No body
// may panic the server or earn a 5xx. A 2xx needs a body within the
// size limit that json.Unmarshal (which, unlike the handler's streaming
// decoder, rejects trailing data by itself) reads as at least one stay,
// every stay a valid coordinate.
func FuzzRecognizeBody(f *testing.F) {
	const maxBody = 4096
	h := newTestServer(f, Config{MaxBodyBytes: maxBody}).Handler()
	valid := fmt.Sprintf(`{"stays":[{"lon":%f,"lat":%f}]}`, origin.Lon, origin.Lat)
	for _, seed := range []string{
		valid, valid + "garbage", valid + valid, valid + " \n",
		`{"stays":[]}`, `{"stays":null}`, `{"stays":[{"lon":400,"lat":31.2}]}`,
		`{"stays":[{"lon":"x"}]}`, `[]`, `{{{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body.String())
		}
		if w.Code >= 300 {
			return
		}
		if len(body) > maxBody {
			t.Fatalf("status %d for a %d-byte body over the %d-byte limit", w.Code, len(body), maxBody)
		}
		var req recognizeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("status %d for body %q that does not decode: %v", w.Code, body, err)
		}
		if len(req.Stays) == 0 {
			t.Fatalf("status %d for body %q with no stays", w.Code, body)
		}
		for i, p := range req.Stays {
			if err := geo.CheckCoord(p.Lon, p.Lat); err != nil {
				t.Fatalf("status %d for body %q with invalid stay %d: %v", w.Code, body, i, err)
			}
		}
	})
}

func TestUnitsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	url := fmt.Sprintf("/v1/units?lon=%f&lat=%f&radius=200", origin.Lon, origin.Lat)
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/units = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Units []struct {
			ID      int `json:"id"`
			Members int `json:"members"`
		} `json:"units"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Units) == 0 {
		t.Fatal("no units within 200 m of the city center")
	}
	for i := 1; i < len(resp.Units); i++ {
		if resp.Units[i].ID <= resp.Units[i-1].ID {
			t.Fatalf("units not ordered by ID: %v", resp.Units)
		}
	}

	// The radius cap turns a whole-city scan into a 400.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, url+"0000", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized radius = %d, want 400", w.Code)
	}
}

func TestPatternsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	url := fmt.Sprintf("/v1/patterns?lon=%f&lat=%f&radius=500", origin.Lon, origin.Lat)

	// No pattern set loaded: empty list, not an error.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/patterns with no set = %d: %s", w.Code, w.Body.String())
	}

	s.SetPatterns([]pattern.Pattern{
		{Support: 3, Stays: []trajectory.StayPoint{{P: at(10, 0)}}},
		{Support: 9, Stays: []trajectory.StayPoint{{P: at(-20, 5)}}},
		{Support: 5, Stays: []trajectory.StayPoint{{P: at(9000, 9000)}}}, // out of range
	})
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/patterns = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Patterns []struct {
			Support int `json:"support"`
		} `json:"patterns"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 {
		t.Fatalf("count = %d, want 2 (the 9 km pattern is out of range)", resp.Count)
	}
	if resp.Patterns[0].Support != 9 || resp.Patterns[1].Support != 3 {
		t.Fatalf("patterns not ordered by support desc: %+v", resp.Patterns)
	}
}

// TestAdmissionShedsWithRetryAfter saturates every service slot and the
// wait queue with parked requests, then checks the next request is shed
// immediately with 503 + Retry-After while the parked ones complete
// fine once released.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	const limit, slack = 2, 1
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{AdmissionLimit: limit, QueueSlack: slack, RetryAfter: 7 * time.Second, Registry: reg})

	// Park `limit` requests inside the handler via a pattern scan that
	// blocks: install a gate the handler must pass through by swapping
	// in a recognizer-independent blocking point — easiest is to hold
	// the admission slots directly.
	release := make(chan struct{})
	var wg sync.WaitGroup
	hold := func() {
		defer wg.Done()
		if err := s.adm.acquire(httptest.NewRequest(http.MethodGet, "/", nil).Context()); err != nil {
			t.Errorf("holder acquire: %v", err)
			return
		}
		<-release
		s.adm.release()
	}
	for i := 0; i < limit+slack; i++ {
		wg.Add(1)
		go hold()
	}
	// Wait until every slot and queue position is taken.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.adm.queue) != limit+slack {
		if time.Now().After(deadline) {
			t.Fatalf("admission never saturated: queue %d/%d", len(s.adm.queue), limit+slack)
		}
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", recognizeBody(t, origin)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server = %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q", got, "7")
	}

	close(release)
	wg.Wait()

	// Capacity is back: the same request now serves.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", recognizeBody(t, origin)))
	if w.Code != http.StatusOK {
		t.Fatalf("after release = %d: %s", w.Code, w.Body.String())
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "csdm_serve_shed_total 1") {
		t.Fatalf("csdm_serve_shed_total not bumped:\n%s", buf.String())
	}
}

// TestMetricsSeededAtZero asserts every serve family is scrapable
// before the first request — the contract cmd/promlint -require
// enforces in CI.
func TestMetricsSeededAtZero(t *testing.T) {
	reg := obs.NewRegistry()
	New(Config{Registry: reg})
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, fam := range []string{
		mRequests, mShed, mPanics, mErrors, mTimeouts,
		mReloads, mReloadFailures, mInflight, mGeneration, mUnits, famReqSeconds,
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("family %s absent from a cold scrape", fam)
		}
	}
}

// TestDrainWaitsForInflight starts a real listener, parks a request
// in-flight, and checks Drain waits for it (and that a request issued
// after drain starts is refused by the closed listener).
func TestDrainWaitsForInflight(t *testing.T) {
	s := New(Config{})
	d := testDiagram(t)
	s.UseDiagram(d)
	s.SetPatterns([]pattern.Pattern{{Support: 1, Stays: []trajectory.StayPoint{{P: origin}}}})

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Hold a request mid-service deterministically: the serve.request
	// fault site sleeps 300ms inside the containment, so the request is
	// provably in flight when Drain fires.
	in, err := fault.Parse("serve.request:delay:1:300ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(in)
	t.Cleanup(func() { fault.Activate(nil) })

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/recognize", "application/json", recognizeBody(t, origin))
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		done <- resp.StatusCode
	}()

	time.Sleep(50 * time.Millisecond)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case code := <-done:
		if code != http.StatusOK && code != -1 {
			t.Fatalf("in-flight request finished with %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// The listener is closed: new connections fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("post-drain request succeeded, want connection error")
	}
}
