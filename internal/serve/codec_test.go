package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/trajectory"
)

// The /v1/recognize codec is checked against encoding/json as the
// oracle: the request through decodeRecognizeRequest, the response
// through json.Encoder over a map and struct of the response schema.

const codecMaxBody = 4096

// oracleStay is the response's per-stay object as encoding/json
// encodes it.
type oracleStay struct {
	Lon       float64  `json:"lon"`
	Lat       float64  `json:"lat"`
	Semantics []string `json:"semantics"`
}

// oracleResponse encodes the /v1/recognize response with encoding/json.
func oracleResponse(tb testing.TB, gen int64, stays []trajectory.StayPoint) []byte {
	tb.Helper()
	out := make([]oracleStay, len(stays))
	for i, st := range stays {
		names := []string{}
		for _, m := range st.S.Majors() {
			names = append(names, m.String())
		}
		out[i] = oracleStay{Lon: st.P.Lon, Lat: st.P.Lat, Semantics: names}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"generation": gen, "stays": out}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oracleStays decodes body with encoding/json and applies the
// handler's checks: nil, false when the body must be refused.
func oracleStays(body []byte) ([]trajectory.StayPoint, bool) {
	req, err := decodeRecognizeRequest(bytes.NewReader(body))
	if err != nil || len(req.Stays) == 0 {
		return nil, false
	}
	stays := make([]trajectory.StayPoint, len(req.Stays))
	for i, p := range req.Stays {
		if geo.CheckCoord(p.Lon, p.Lat) != nil {
			return nil, false
		}
		stays[i].P = geo.Point{Lon: p.Lon, Lat: p.Lat}
	}
	return stays, true
}

func sameBits(a, b []trajectory.StayPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].P.Lon) != math.Float64bits(b[i].P.Lon) ||
			math.Float64bits(a[i].P.Lat) != math.Float64bits(b[i].P.Lat) {
			return false
		}
	}
	return true
}

// codecEdgeBodies are the request bodies encoding/json reads
// differently from a naive scanner, each marked with whether the
// canonical-shape scanner takes it.
var codecEdgeBodies = []struct {
	name    string
	body    string
	scanned bool
}{
	{"canonical", `{"stays":[{"lon":121.47,"lat":31.23},{"lon":121.5,"lat":31.2}]}`, true},
	{"whitespace everywhere", " \t\n{ \"stays\" :\r[ { \"lon\" : 121.47 , \"lat\" : 31.23 } ] } \n", true},
	{"no stays", `{"stays":[]}`, true},
	{"negative zero", `{"stays":[{"lon":-0,"lat":-0.0}]}`, true},
	{"exponents", `{"stays":[{"lon":1E2,"lat":-3.5e+1},{"lon":12e-1,"lat":0.5E-0}]}`, true},
	{"below 1e-6", `{"stays":[{"lon":1e-7,"lat":-9.99e-7}]}`, true},
	{"at 1e-6", `{"stays":[{"lon":1e-6,"lat":0.000001}]}`, true},
	{"subnormal", `{"stays":[{"lon":5e-324,"lat":1e-400}]}`, true},
	{"out of range coordinate", `{"stays":[{"lon":1e21,"lat":0}]}`, true},
	{"lon over 180", `{"stays":[{"lon":180.0000001,"lat":0}]}`, true},
	{"number out of float range", `{"stays":[{"lon":1e999,"lat":0}]}`, false},
	{"case-folded keys", `{"STAYS":[{"Lon":121.47,"LAT":31.23}]}`, false},
	{"escaped keys", `{"st\u0061ys":[{"lon":121.47,"l\u0061t":31.23}]}`, false},
	{"lat before lon", `{"stays":[{"lat":31.23,"lon":121.47}]}`, false},
	{"missing lat", `{"stays":[{"lon":121.47}]}`, false},
	{"empty stay", `{"stays":[{}]}`, false},
	{"null stay", `{"stays":[null]}`, false},
	{"unknown stay field", `{"stays":[{"lon":121.47,"lat":31.23,"alt":4}]}`, false},
	{"unknown top-level field", `{"stays":[{"lon":121.47,"lat":31.23}],"id":"x"}`, false},
	{"duplicate coordinate key", `{"stays":[{"lon":121.47,"lat":0,"lat":31.23}]}`, false},
	{"duplicate stays key", `{"stays":[{"lon":0,"lat":0}],"stays":[{"lon":121.47,"lat":31.23}]}`, false},
	{"null stays", `{"stays":null}`, false},
	{"empty object", `{}`, false},
	{"string number", `{"stays":[{"lon":"121.47","lat":31.23}]}`, false},
	{"leading zero", `{"stays":[{"lon":0121,"lat":31}]}`, false},
	{"leading plus", `{"stays":[{"lon":+121,"lat":31}]}`, false},
	{"bare fraction", `{"stays":[{"lon":.5,"lat":31}]}`, false},
	{"empty fraction", `{"stays":[{"lon":1.,"lat":31}]}`, false},
	{"empty exponent", `{"stays":[{"lon":1e,"lat":31}]}`, false},
	{"hex float", `{"stays":[{"lon":0x1p4,"lat":31}]}`, false},
	{"infinity", `{"stays":[{"lon":Infinity,"lat":31}]}`, false},
	{"trailing comma", `{"stays":[{"lon":121.47,"lat":31.23},]}`, false},
	{"trailing value", `{"stays":[{"lon":121.47,"lat":31.23}]}{}`, false},
	{"trailing garbage", `{"stays":[{"lon":121.47,"lat":31.23}]}x`, false},
	{"truncated", `{"stays":[{"lon":121.47,"lat":31.23}]`, false},
	{"empty body", ``, false},
}

// TestRecognizeCodecEdges serves every edge body and checks the status
// and the bytes against encoding/json.
func TestRecognizeCodecEdges(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: codecMaxBody})
	snap := s.Snapshot()
	for _, tc := range codecEdgeBodies {
		body := []byte(tc.body)
		if _, ok := scanStays(body, nil); ok != tc.scanned {
			t.Errorf("%s: scanned = %v, want %v", tc.name, ok, tc.scanned)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
		want, ok := oracleStays(body)
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s: code = %d, want 400", tc.name, w.Code)
			}
			continue
		}
		if w.Code != http.StatusOK {
			t.Errorf("%s: code = %d, want 200: %s", tc.name, w.Code, w.Body.String())
			continue
		}
		if err := recognize.RecognizeStays(context.Background(), want, snap.Rec, nil); err != nil {
			t.Fatal(err)
		}
		if got, exp := w.Body.Bytes(), oracleResponse(t, snap.Generation, want); !bytes.Equal(got, exp) {
			t.Errorf("%s: response\n%s\nwant\n%s", tc.name, got, exp)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.name, ct)
		}
	}
}

// TestRecognizeOversizedBodyIs413 pins the one contract change of the
// buffered read: a body over MaxBodyBytes is 413 whatever it holds,
// including a malformed one a streaming decoder would stop in early.
func TestRecognizeOversizedBodyIs413(t *testing.T) {
	const maxBody = 256
	s := newTestServer(t, Config{MaxBodyBytes: maxBody})
	pad := strings.Repeat(" ", maxBody)
	for _, body := range []string{`{{{` + pad, `[]` + pad, `{"stays":[{"lon":"x"` + pad} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recognize", strings.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%.20q…: code = %d, want 413", body, w.Code)
		}
	}
}

// TestRecognizeResponseAllSemantics appends a response for every one
// of the 2^15 semantic properties, with coordinates on both sides of
// encoding/json's format switch, and checks the bytes.
func TestRecognizeResponseAllSemantics(t *testing.T) {
	coords := []float64{0, math.Copysign(0, -1), 121.47, -31.230000000000004, 1e-6, 9.99e-7, -1e-7, 5e-324, 1e20, 1e21, -1.5e300}
	var got []byte
	for s := 0; s < 1<<poi.NumMajors; s++ {
		stays := []trajectory.StayPoint{
			{P: geo.Point{Lon: coords[s%len(coords)], Lat: coords[(s/len(coords))%len(coords)]}, S: poi.Semantics(s)},
			{P: geo.Point{Lon: 1, Lat: 2}, S: poi.Semantics(s ^ 0x7fff)},
		}
		gen := int64(s) - 1<<14
		got = appendRecognizeResponse(got[:0], gen, stays)
		if want := oracleResponse(t, gen, stays); !bytes.Equal(got, want) {
			t.Fatalf("semantics %#x: response\n%s\nwant\n%s", s, got, want)
		}
	}
}

// FuzzRecognizeCodec checks the codec against encoding/json. For a
// body within the size limit: when the scanner takes it, encoding/json
// must accept it with the same float64 bits; the handler's decode must
// accept exactly what encoding/json plus the stay checks accept, with
// the same bits; and the response appended for those stays, the fuzzed
// coordinate, a fuzzed generation and fuzzed semantics must be
// byte-identical to json.Encoder's.
func FuzzRecognizeCodec(f *testing.F) {
	for _, tc := range codecEdgeBodies {
		f.Add([]byte(tc.body), int64(1), 121.47, 31.23, uint16(0x0003))
	}
	f.Add([]byte(`{"stays":[{"lon":1e-7,"lat":1e21}]}`), int64(-1), 1e-7, 1e21, uint16(0x7fff))
	f.Add([]byte(`{"stays":[{"lon":-0,"lat":0}]}`), int64(math.MaxInt64), math.Copysign(0, -1), 9.99e-7, uint16(0x8000))
	f.Add([]byte(`{"stays":[{"lon":1e999,"lat":0}]}`), int64(math.MinInt64), 1e-6, -1e300, uint16(0x4001))
	f.Fuzz(func(t *testing.T, body []byte, gen int64, lon, lat float64, sem uint16) {
		if len(body) > codecMaxBody {
			return
		}
		req, jerr := decodeRecognizeRequest(bytes.NewReader(body))
		if scanned, ok := scanStays(body, nil); ok {
			if jerr != nil {
				t.Fatalf("scanner took %q, encoding/json refused it: %v", body, jerr)
			}
			want := make([]trajectory.StayPoint, len(req.Stays))
			for i, p := range req.Stays {
				want[i].P = geo.Point{Lon: p.Lon, Lat: p.Lat}
			}
			if !sameBits(scanned, want) {
				t.Fatalf("body %q: scanned %v, encoding/json %v", body, scanned, want)
			}
		}
		want, wantOK := oracleStays(body)
		got, err := decodeStays(body, nil)
		if (err == nil) != wantOK {
			t.Fatalf("body %q: decode error %v, encoding/json accepts: %v", body, err, wantOK)
		}
		if wantOK && !sameBits(got, want) {
			t.Fatalf("body %q: decoded %v, encoding/json %v", body, got, want)
		}

		stays := want
		if !math.IsNaN(lon) && !math.IsInf(lon, 0) && !math.IsNaN(lat) && !math.IsInf(lat, 0) {
			stays = append(stays, trajectory.StayPoint{P: geo.Point{Lon: lon, Lat: lat}})
		}
		for i := range stays {
			stays[i].S = poi.Semantics(sem^uint16(i*0x2545)) & (1<<poi.NumMajors - 1)
		}
		if resp, exp := appendRecognizeResponse(nil, gen, stays), oracleResponse(t, gen, stays); !bytes.Equal(resp, exp) {
			t.Fatalf("response\n%s\nwant\n%s", resp, exp)
		}
	})
}
