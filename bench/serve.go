package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/obs"
	"csdm/internal/recognize"
	"csdm/internal/serve"
	"csdm/internal/trajectory"
)

// Serving is measured closed-loop: each of serveConns connections sends
// its next request when the previous answer arrives. Each connection
// keeps every keepEvery-th request to check against in-process
// recognition.
const (
	serveConns = 2
	keepEvery  = 100
	// admissionLimit is the server's concurrent-request cap.
	admissionLimit = 4
)

// openLoopRates are the fixed arrival rates (req/s) of the traced-run
// open-loop diagnostic; each names a serve.openloop_p99_ms.r<rate>
// metric.
var openLoopRates = []int{5000, 20000}

// serveRecognize is the online Algorithm 3 path: a snapshot of the city
// served by an in-process server, driven by closed-loop connections
// posting journeys sampled inside the extent. Its operation is one
// request, timed from send.
func serveRecognize(r *runner) error {
	var (
		c    corpus
		srv  *serve.Server
		reg  *obs.Registry
		addr string
	)
	defer func() {
		if srv != nil {
			srv.Drain(drainTimeout) // nothing is measured after the run
		}
	}()
	path := filepath.Join(r.o.workDir, "snapshot.csdf")
	if err := r.setup(func() error {
		if srv != nil {
			if err := srv.Drain(drainTimeout); err != nil {
				return err
			}
		}
		c = cityCorpus(r.o.seed, r.o.scale)
		d, err := csd.BuildEnv(env(r.ctx, nil), c.pois, c.stays, csdParams())
		if err != nil {
			return err
		}
		if err := ckpt.WriteAtomic(path, d.Write); err != nil {
			return err
		}
		reg = obs.NewRegistry()
		srv = serve.New(serve.Config{AdmissionLimit: admissionLimit, Registry: reg})
		if err := srv.LoadSnapshot(path); err != nil {
			return err
		}
		addr, err = srv.Start("127.0.0.1:0")
		return err
	}); err != nil {
		return err
	}
	r.rep.Digests["corpus"] = c.digest()
	snap := srv.Snapshot()
	gens := make([]*requestGen, serveConns)
	for i := range gens {
		gens[i] = newRequestGen(r.o.seed, i, snap.Extent)
	}
	// The warm-up fills the connection pools and the scratch pool; it
	// is discarded.
	closedLoop(r.ctx, addr, gens, time.Now().Add(r.o.scale.Warmup), 0, nil)

	hist := obs.Label("csdm_serve_request_seconds", "route", "recognize")
	var (
		res, resUn   load
		handler      obs.HistogramSnapshot
		shed0, shed1 int64
		checked      int
	)
	un, tr, err := r.measure(func(ph *phase) error {
		h0 := reg.HistogramSnapshot(hist)
		shed0 = reg.Counter("csdm_serve_shed_total")
		res = closedLoop(r.ctx, addr, gens, ph.deadline, keepEvery, ph)
		handler = histDelta(reg.HistogramSnapshot(hist), h0)
		shed1 = reg.Counter("csdm_serve_shed_total")
		if !ph.traced {
			resUn = res
		}
		ph.ops = res.lat
		r.rep.Attempted += res.sent
		r.rep.Failed += res.failed
		for _, s := range res.kept {
			if err := checkResponse(r.ctx, s, snap.Rec); err != nil {
				r.rep.fail("served response: %v", err)
				break
			}
		}
		checked += len(res.kept)
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.Digests["responses_checked"] = strconv.Itoa(checked)
	n := len(un.ops)
	r.rep.set("serve_p50_ms", "ms", median(un.ops), n)
	r.rep.set("serve_p99_ms", "ms", quantile(un.ops, 0.99), n)
	r.rep.set("serve_rps", "1/s", float64(n)/resUn.elapsed.Seconds(), n)

	// Layer metrics from the last phase (the traced one when tracing).
	client := median(res.lat) * 1000
	h50, h99 := handler.Quantile(0.5)*1e6, handler.Quantile(0.99)*1e6
	r.rep.set("serve.rps", "1/s", float64(len(res.lat))/res.elapsed.Seconds(), len(res.lat))
	r.rep.set("serve.client_p99_ms", "ms", quantile(res.lat, 0.99), len(res.lat))
	r.rep.set("serve.handler_p50_us", "us", h50, int(handler.Count))
	r.rep.set("serve.handler_p99_us", "us", h99, int(handler.Count))
	r.rep.set("serve.transport_us", "us", client-h50, len(res.lat))
	r.rep.set("serve.shed", "count", float64(shed1-shed0), 1)
	if tr == nil {
		return nil
	}
	req := recognizeUS(r.ctx, r.o.seed, snap, min(len(res.lat), 20000))
	r.rep.set("recognize.request_us", "us", req, 1)
	if h50 > 0 {
		r.rep.set("recognize.share", "ratio", req/h50, 1)
	}
	r.rep.set("serve.allocs_per_req", "count", allocsPerRequest(srv.Handler(), snap.Extent, r.o.seed), 1)
	for _, rate := range openLoopRates {
		lat := openLoop(r.ctx, addr, gens[0], rate, r.o.scale.OpenLoop)
		r.rep.set("serve.openloop_p99_ms.r"+strconv.Itoa(rate), "ms", quantile(lat, 0.99), len(lat))
	}
	r.indexMetrics(c.pois, c.stays)
	return nil
}

// histDelta is the histogram of the observations made between two
// snapshots of one histogram.
func histDelta(now, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: now.Bounds, Counts: make([]int64, len(now.Counts))}
	for i := range now.Counts {
		d.Counts[i] = now.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
		d.Count += d.Counts[i]
	}
	d.Sum = now.Sum - before.Sum
	return d
}

// recognizeUS replays the first n requests of connection 0's stream
// through recognize.RecognizeStays in-process and returns the mean time
// per request in µs: the share of a request that is Algorithm 3 itself.
func recognizeUS(ctx context.Context, seed int64, snap *serve.Snapshot, n int) float64 {
	n = max(n, 1)
	g := newRequestGen(seed, 0, snap.Extent)
	pts := make([]geo.Point, staysPerRequest)
	stays := make([]trajectory.StayPoint, staysPerRequest)
	sc := new(recognize.Scratch)
	var total time.Duration
	for i := 0; i < n; i++ {
		g.next(pts)
		for k, p := range pts {
			stays[k] = trajectory.StayPoint{P: p}
		}
		t0 := time.Now()
		recognize.RecognizeStays(ctx, stays, snap.Rec, sc)
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// allocsPerRequest counts the heap allocations of the server's own
// request path: handler calls on an in-memory request and recorder,
// minus the allocations of building those.
func allocsPerRequest(h http.Handler, ext geo.Rect, seed int64) float64 {
	const n = 2000
	g := newRequestGen(seed, 0, ext)
	pts := make([]geo.Point, staysPerRequest)
	g.next(pts)
	body := appendBody(nil, pts)
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

// openLoop sends requests on a fixed schedule of rate per second for d,
// over serveConns connections, and returns each served request's
// latency timed from when it was due — so a stall also charges the
// requests queued behind it.
func openLoop(ctx context.Context, addr string, g *requestGen, rate int, d time.Duration) []float64 {
	n := int(float64(rate) * d.Seconds())
	interval := time.Second / time.Duration(rate)
	type job struct {
		due   time.Time
		stays []geo.Point
	}
	jobs := make(chan job, n) // sized to the number of sends
	start := time.Now()
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			stays := make([]geo.Point, staysPerRequest)
			g.next(stays)
			jobs <- job{due, stays}
		}
	}()
	var (
		mu  sync.Mutex
		lat []float64
		wg  sync.WaitGroup
	)
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for j := range jobs {
				code, err := c.post(ctx, j.stays)
				d := time.Since(j.due)
				if err == nil && code == http.StatusOK {
					mu.Lock()
					lat = append(lat, ms(d))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return lat
}
