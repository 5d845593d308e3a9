package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csdm/internal/obs"
)

// TestPhaseSecondsSeededAndObserved checks that every
// csdm_serve_phase_seconds series is scrapable before the first
// request, and that one /v1/recognize request lands once in each.
func TestPhaseSecondsSeededAndObserved(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, name := range phaseNames {
		series := obs.Label(famPhaseSeconds, "phase", name)
		if !strings.Contains(buf.String(), famPhaseSeconds+`_count{phase="`+name+`"} 0`) {
			t.Errorf("%s absent from a cold scrape", series)
		}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", recognizeBody(t, origin)))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/recognize = %d: %s", w.Code, w.Body.String())
	}
	for _, name := range phaseNames {
		if n := reg.HistogramSnapshot(obs.Label(famPhaseSeconds, "phase", name)).Count; n != 1 {
			t.Errorf("phase %s: %d observations after one request, want 1", name, n)
		}
	}
	if n := reg.Counter(obs.Label(mRequests, "route", "recognize")); n != 1 {
		t.Errorf("recognize requests = %d, want 1", n)
	}
}
