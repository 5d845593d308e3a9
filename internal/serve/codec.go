package serve

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

// The /v1/recognize codec. A request in the canonical shape
// {"stays":[{"lon":N,"lat":N},…]} is scanned without reflection, and
// the response is appended byte for byte as encoding/json would write
// it. encoding/json stays the definition of the contract: any other
// body is decoded by decodeRecognizeRequest, so only the input picks
// the path, never the outcome.

// A recognize buffer grown past either cap is dropped rather than
// returned to the pool, so one large request does not pin its memory.
const (
	maxPooledBytes = 64 << 10
	maxPooledStays = 1 << 10
)

// recognizeBuf is one request's reusable memory: the body, then the
// response appended over it, and the decoded stays.
type recognizeBuf struct {
	b     []byte
	stays []trajectory.StayPoint
}

// readBody reads all of body into b[:0], growing b as io.ReadAll does.
func readBody(b []byte, body io.Reader) ([]byte, error) {
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// scanner walks a request body. Every method skips JSON whitespace
// first and reports false, consuming nothing useful, on a mismatch.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token consumes the literal t.
func (s *scanner) token(t string) bool {
	s.skipSpace()
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// number consumes one token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it with
// strconv.ParseFloat, as encoding/json does for a float64. An
// out-of-range number reports false.
func (s *scanner) number() (float64, bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case !s.digits():
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// scanStays appends the stays of a canonical-shape body to dst. ok is
// false for any other body — case-folded or escaped keys, another key
// order, unknown fields, null, out-of-range numbers, trailing data —
// and the caller then decodes it with encoding/json; the slice it
// returns then holds whatever was scanned, for its capacity only.
func scanStays(body []byte, dst []trajectory.StayPoint) (stays []trajectory.StayPoint, ok bool) {
	s := scanner{b: body}
	if !s.token("{") || !s.token(`"stays"`) || !s.token(":") || !s.token("[") {
		return dst, false
	}
	if !s.token("]") {
		for {
			var sp trajectory.StayPoint
			if !s.token("{") || !s.token(`"lon"`) || !s.token(":") {
				return dst, false
			}
			if sp.P.Lon, ok = s.number(); !ok {
				return dst, false
			}
			if !s.token(",") || !s.token(`"lat"`) || !s.token(":") {
				return dst, false
			}
			if sp.P.Lat, ok = s.number(); !ok {
				return dst, false
			}
			if !s.token("}") {
				return dst, false
			}
			dst = append(dst, sp)
			if s.token("]") {
				break
			}
			if !s.token(",") {
				return dst, false
			}
		}
	}
	if !s.token("}") {
		return dst, false
	}
	s.skipSpace()
	return dst, s.i == len(s.b)
}

// majorJSON holds each major category's name as encoding/json writes
// it: quoted and HTML-escaped ("Shop & Market").
var majorJSON = func() (out [poi.NumMajors][]byte) {
	for m := range out {
		b, err := json.Marshal(poi.Major(m).String())
		if err != nil {
			panic(err)
		}
		out[m] = b
	}
	return out
}()

// appendFloat appends f as encoding/json encodes a float64: 'f'
// format, or 'e' for magnitudes below 1e-6 or from 1e21 up, with a
// two-digit negative exponent shortened (e-09 to e-9). f must be
// finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendRecognizeResponse appends the /v1/recognize response for the
// recognized stays, byte-identical to
// json.NewEncoder(w).Encode(map[string]any{"generation": gen, "stays": …})
// over stays of {lon, lat, semantics}, trailing newline included.
func appendRecognizeResponse(b []byte, gen int64, stays []trajectory.StayPoint) []byte {
	b = append(b, `{"generation":`...)
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, `,"stays":[`...)
	for i, st := range stays {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lon":`...)
		b = appendFloat(b, st.P.Lon)
		b = append(b, `,"lat":`...)
		b = appendFloat(b, st.P.Lat)
		b = append(b, `,"semantics":[`...)
		first := true
		for m := range majorJSON {
			if st.S.Has(poi.Major(m)) {
				if !first {
					b = append(b, ',')
				}
				first = false
				b = append(b, majorJSON[m]...)
			}
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}\n"...)
}
