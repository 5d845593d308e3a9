//go:build !race

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"csdm/internal/obs"
)

// recognizeAllocCeiling is the /v1/recognize handler's heap
// allocations per four-stay request, as allocsPerRequest counts them.
// The codec and its pooled buffer allocate nothing; the nine are the
// request context, the MaxBytesReader, the Content-Type header value,
// and the recorder's header snapshot and body. The test allows half an
// allocation more for pooled buffers refilled after runtime.GC.
const recognizeAllocCeiling = 9

// allocsPerRequest counts the heap allocations of h serving body on
// /v1/recognize: handler calls on an in-memory request and recorder,
// minus the allocations of building those. The race detector drops
// pooled objects at random, so this file builds without it.
func allocsPerRequest(h http.Handler, body []byte) float64 {
	const n = 2000
	count := func(serveIt bool) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body))
			w := httptest.NewRecorder()
			if serveIt {
				h.ServeHTTP(w, req)
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	base := count(false)
	return (float64(count(true)) - float64(base)) / n
}

// TestRecognizeHandlerAllocs holds a four-stay /v1/recognize request,
// served with metrics on, to the ceiling above.
func TestRecognizeHandlerAllocs(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry()})
	body := recognizeBody(t, origin, at(-40, 3), at(60, -2), at(5000, 5000))
	b := make([]byte, body.Len())
	body.Read(b)
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(b)))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/recognize = %d: %s", w.Code, w.Body.String())
	}
	got := allocsPerRequest(h, b)
	t.Logf("%.2f allocs per request (ceiling %d)", got, recognizeAllocCeiling)
	if got > recognizeAllocCeiling+0.5 {
		t.Fatalf("%.2f allocs per request > ceiling %d", got, recognizeAllocCeiling)
	}
}
