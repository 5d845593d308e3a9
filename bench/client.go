package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/recognize"
	"csdm/internal/trajectory"
)

// staysPerRequest is the journey length every /v1/recognize request
// posts.
const staysPerRequest = 4

// requestGen produces one connection's request stream: journeys of
// staysPerRequest stay points drawn uniformly inside the extent. Equal
// (seed, conn) pairs give equal streams, so the stream can be replayed
// in-process.
type requestGen struct {
	rng *rand.Rand
	ext geo.Rect
}

func newRequestGen(seed int64, conn int, ext geo.Rect) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), ext: ext}
}

func (g *requestGen) next(stays []geo.Point) {
	for i := range stays {
		stays[i] = geo.Point{
			Lon: g.ext.Min.Lon + g.rng.Float64()*(g.ext.Max.Lon-g.ext.Min.Lon),
			Lat: g.ext.Min.Lat + g.rng.Float64()*(g.ext.Max.Lat-g.ext.Min.Lat),
		}
	}
}

// appendBody appends the /v1/recognize JSON body for stays to b.
func appendBody(b []byte, stays []geo.Point) []byte {
	b = append(b, `{"stays":[`...)
	for i, p := range stays {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lon":`...)
		b = strconv.AppendFloat(b, p.Lon, 'g', -1, 64)
		b = append(b, `,"lat":`...)
		b = strconv.AppendFloat(b, p.Lat, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// conn is one client connection to the service: a client whose
// transport holds at most one connection.
type conn struct {
	client *http.Client
	url    string
	body   []byte
	resp   bytes.Buffer
}

func newConn(addr string) *conn {
	return &conn{
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		url: "http://" + addr + "/v1/recognize",
	}
}

// post sends one recognize request and reads the whole response into
// c.resp, returning the status code.
func (c *conn) post(ctx context.Context, stays []geo.Point) (int, error) {
	c.body = appendBody(c.body[:0], stays)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := io.Copy(&c.resp, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// sampled is one request kept for checking: its stays and the response.
type sampled struct {
	stays []geo.Point
	resp  []byte
}

// load is what a closed-loop run measured.
type load struct {
	lat          []float64 // ms, served requests, timed from send
	sent, failed int64
	kept         []sampled
	elapsed      time.Duration
}

// closedLoop drives conns connections, each sending its next request
// only after the previous response arrived, until deadline. Every
// keepEvery-th request of each connection is kept for checking (none
// when keepEvery is 0). On a traced phase those requests also get a
// benchmark span; tracing every request would dominate the memory the
// run measures.
func closedLoop(ctx context.Context, addr string, gens []*requestGen, deadline time.Time, keepEvery int, ph *phase) load {
	var (
		mu  sync.Mutex
		out load
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, g := range gens {
		wg.Add(1)
		go func(g *requestGen) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			var (
				l   load
				lat []float32 // half the memory of float64, at 1e-7 precision
			)
			stays := make([]geo.Point, staysPerRequest)
			for i := 0; time.Now().Before(deadline); i++ {
				g.next(stays)
				keep := keepEvery > 0 && i%keepEvery == 0
				var sp span
				if keep && ph != nil {
					sp = ph.tr.start(0, "http.POST /v1/recognize")
				}
				t0 := time.Now()
				code, err := c.post(ctx, stays)
				d := time.Since(t0)
				sp.end()
				l.sent++
				if err != nil || code != http.StatusOK {
					l.failed++
					continue
				}
				lat = append(lat, float32(ms(d)))
				if ph != nil {
					ph.rssw.boundary()
				}
				if keep {
					l.kept = append(l.kept, sampled{stays: append([]geo.Point(nil), stays...), resp: bytes.Clone(c.resp.Bytes())})
				}
			}
			mu.Lock()
			for _, v := range lat {
				out.lat = append(out.lat, float64(v))
			}
			out.kept = append(out.kept, l.kept...)
			out.sent += l.sent
			out.failed += l.failed
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// checkResponse compares one served response with in-process
// Algorithm 3 on the same diagram.
func checkResponse(ctx context.Context, s sampled, rec recognize.Recognizer) error {
	var got struct {
		Stays []struct {
			Semantics []string `json:"semantics"`
		} `json:"stays"`
	}
	if err := json.Unmarshal(s.resp, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	want := make([]trajectory.StayPoint, len(s.stays))
	for i, p := range s.stays {
		want[i].P = p
	}
	if err := recognize.RecognizeStays(ctx, want, rec, nil); err != nil {
		return err
	}
	if len(got.Stays) != len(want) {
		return fmt.Errorf("response has %d stays, request %d", len(got.Stays), len(want))
	}
	for i, w := range want {
		if names := majorNames(w.S); fmt.Sprint(names) != fmt.Sprint(got.Stays[i].Semantics) {
			return fmt.Errorf("stay %v: served %v, in-process %v", s.stays[i], got.Stays[i].Semantics, names)
		}
	}
	return nil
}

func majorNames(s poi.Semantics) []string {
	names := []string{}
	for _, m := range s.Majors() {
		names = append(names, m.String())
	}
	return names
}
