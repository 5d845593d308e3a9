package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csdm/internal/ckpt"
	"csdm/internal/csd"
	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/serve"
)

// drainTimeout bounds every in-process server's shutdown.
const drainTimeout = 5 * time.Second

// ingestStream is streaming ingestion beside live reads: a maintainer
// seeded with the first half of the city's stays applies the rest as
// small delta batches, each published as a new generation and
// hot-swapped into an in-process server while one reader connection
// keeps recognizing. Its operation is one batch's ingest-to-serve lag.
func ingestStream(r *runner) error {
	sc := r.o.scale
	params := csdParams()
	var (
		c        corpus
		m        *csd.Maintainer
		mgr      *ckpt.Manager
		srv      *serve.Server
		addr     string
		seedTime []float64
		// next is the stream's next batch; a pass ends with every stay
		// applied at next == sc.Batches.
		next int
	)
	defer func() {
		if srv != nil {
			srv.Drain(drainTimeout) // nothing is measured after the run
		}
	}()
	// seed builds a maintainer on the first half of the stays and
	// publishes its diagram as generation gen.
	seed := func(gen int64) error {
		t0 := time.Now()
		var err error
		if m, err = csd.NewMaintainerEnv(env(r.ctx, nil), c.pois, c.stays[:len(c.stays)/2], params); err != nil {
			return err
		}
		seedTime = append(seedTime, time.Since(t0).Seconds())
		m.SetGeneration(gen)
		next = 0
		return mgr.SaveGenerationDiagram(m.Diagram())
	}
	k := 0
	if err := r.setup(func() error {
		if srv != nil {
			if err := srv.Drain(drainTimeout); err != nil {
				return err
			}
		}
		k++
		c = cityCorpus(r.o.seed, r.o.scale)
		dir := filepath.Join(r.o.workDir, fmt.Sprintf("ingest-%d", k))
		var err error
		if mgr, err = ckpt.New(dir, nil); err != nil {
			return err
		}
		if err := seed(1); err != nil {
			return err
		}
		srv = serve.New(serve.Config{AdmissionLimit: admissionLimit})
		if err := srv.LoadCurrent(dir); err != nil {
			return err
		}
		addr, err = srv.Start("127.0.0.1:0")
		return err
	}); err != nil {
		return err
	}
	r.rep.Digests["corpus"] = c.digest()
	ext := geo.BoundingRect(poi.Locations(c.pois))
	half := len(c.stays) / 2
	size := max(int(float64(len(c.stays))*sc.BatchFrac), 1)
	if half+sc.Batches*size > len(c.stays) {
		return fmt.Errorf("%d batches of %d stays overrun the %d stays after the seed", sc.Batches, size, len(c.stays)-half)
	}

	type batchStats struct {
		apply, publish, reload  []float64
		affected, dirty, reused int
		snapshotBytes           int64
	}
	var (
		last *csd.Diagram
		bs   batchStats
	)
	// stream applies batches from next on — ApplyDelta → publish →
	// Reload — until the pass ends or ph's time is up. The last batch
	// takes the remainder, so a pass ends with every stay applied.
	stream := func(ph *phase) error {
		for ; next < sc.Batches && (len(ph.ops) == 0 || !ph.over()); next++ {
			b := next
			lo, hi := half+b*size, half+(b+1)*size
			if b == sc.Batches-1 {
				hi = len(c.stays)
			}
			tr := ph.obsTrace()
			root := ph.tr.start(0, "ingest.batch")
			t0 := time.Now()
			sp := ph.tr.start(root.id, "csd.Maintainer.ApplyDelta")
			d, st, err := m.ApplyDelta(env(r.ctx, tr), c.stays[lo:hi])
			sp.end()
			apply := sp
			t1 := time.Now()
			if err == nil {
				sp = ph.tr.start(root.id, "ckpt.Manager.SaveGenerationDiagram")
				err = mgr.SaveGenerationDiagram(d)
				sp.end()
			}
			t2 := time.Now()
			var snap *serve.Snapshot
			if err == nil {
				sp = ph.tr.start(root.id, "serve.Server.Reload")
				snap, err = srv.Reload()
				sp.end()
			}
			t3 := time.Now()
			root.end()
			apply.graft(tr, 0)
			r.rep.Attempted++
			if err != nil {
				r.rep.Failed++
				return fmt.Errorf("batch %d: %w", b, err)
			}
			if snap.DiagramGeneration != d.Generation {
				r.rep.fail("batch %d: server reloaded generation %d, published %d", b, snap.DiagramGeneration, d.Generation)
			}
			ph.record(t3.Sub(t0))
			bs.apply = append(bs.apply, ms(t1.Sub(t0)))
			bs.publish = append(bs.publish, ms(t2.Sub(t1)))
			bs.reload = append(bs.reload, ms(t3.Sub(t2)))
			bs.affected += st.AffectedPOIs
			bs.dirty += st.DirtyUnits
			bs.reused += st.ReusedUnits
			if tr != nil {
				ph.layers = append(ph.layers, flatten(tr))
			}
			if fi, err := os.Stat(filepath.Join(mgr.Dir(), ckpt.GenerationFile(d.Generation))); err == nil {
				bs.snapshotBytes = fi.Size()
			}
			if _, err := mgr.PruneGenerations(2); err != nil {
				return err
			}
			last = d
		}
		return nil
	}

	// The layer metrics below come from the last phase: the traced one
	// when tracing.
	var reads []float64
	un, tr, err := r.measure(func(ph *phase) error {
		bs = batchStats{}
		rd := startReader(r.ctx, addr, newRequestGen(r.o.seed, 0, ext))
		defer func() { reads = rd.stop(r.rep) }()
		for len(ph.ops) == 0 || !ph.over() {
			if next == sc.Batches {
				// Restart the stream: reseed from the first half,
				// continuing the generation lineage the server follows.
				if err := seed(m.Generation() + 1); err != nil {
					return err
				}
				if _, err := srv.Reload(); err != nil {
					return err
				}
			}
			rd.streaming.Store(true)
			err := stream(ph)
			rd.streaming.Store(false)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := len(un.ops)
	r.rep.set("ingest_lag_p50_ms", "ms", median(un.ops), n)
	r.rep.set("ingest_lag_p90_ms", "ms", quantile(un.ops, 0.9), n)
	r.rep.set("ingest_read_p99_ms", "ms", quantile(reads, 0.99), len(reads))
	r.rep.set("ingest.read_p99_ms", "ms", quantile(reads, 0.99), len(reads))
	nb := len(bs.apply)
	r.rep.set("csd.apply_delta_p50_ms", "ms", median(bs.apply), nb)
	r.rep.set("csd.apply_delta_p90_ms", "ms", quantile(bs.apply, 0.9), nb)
	r.rep.set("ckpt.publish_p50_ms", "ms", median(bs.publish), nb)
	r.rep.set("ckpt.publish_p90_ms", "ms", quantile(bs.publish, 0.9), nb)
	r.rep.set("serve.reload_ms", "ms", median(bs.reload), nb)
	r.rep.set("ckpt.snapshot_bytes", "bytes", float64(bs.snapshotBytes), 1)
	r.rep.set("csd.delta.affected_pois", "count", float64(bs.affected)/float64(nb), nb)
	if bs.dirty+bs.reused > 0 {
		r.rep.set("csd.delta.reuse_ratio", "ratio", float64(bs.reused)/float64(bs.dirty+bs.reused), nb)
	}
	r.rep.set("setup.maintainer_s", "s", median(seedTime), len(seedTime))
	if tr != nil {
		r.indexMetrics(c.pois, c.stays)
	}

	// After timing: finish the pass the window cut short; then the last
	// generation must be byte-equal to a one-shot build over every stay.
	if err := stream(&phase{deadline: time.Now().Add(time.Hour)}); err != nil {
		return err
	}
	full, err := csd.BuildEnv(env(r.ctx, nil), c.pois, c.stays, params)
	if err != nil {
		return err
	}
	a, err := payload(last)
	if err != nil {
		return err
	}
	b, err := payload(full)
	if err != nil {
		return err
	}
	r.rep.Digests["diagram_payload_sha256"] = sha(a)
	if string(a) != string(b) {
		r.rep.fail("last generation payload %s differs from a one-shot build's %s", sha(a), sha(b))
	}
	if got := srv.Snapshot().DiagramGeneration; got != last.Generation {
		r.rep.fail("server holds generation %d after the stream, want %d", got, last.Generation)
	}
	return nil
}

// reader is one closed-loop connection recognizing against the server
// while it hot-swaps; it records latencies only while streaming is set.
type reader struct {
	streaming    atomic.Bool
	cancel       context.CancelFunc
	wg           sync.WaitGroup
	lat          []float64
	sent, failed int64
}

func startReader(ctx context.Context, addr string, g *requestGen) *reader {
	rd := &reader{}
	ctx, rd.cancel = context.WithCancel(ctx)
	rd.wg.Add(1)
	go func() {
		defer rd.wg.Done()
		c := newConn(addr)
		defer c.close()
		stays := make([]geo.Point, staysPerRequest)
		for ctx.Err() == nil {
			g.next(stays)
			rec := rd.streaming.Load()
			t0 := time.Now()
			code, err := c.post(ctx, stays)
			d := time.Since(t0)
			if ctx.Err() != nil {
				return // the run ended mid-request
			}
			rd.sent++
			if err != nil || code != http.StatusOK {
				rd.failed++
				continue
			}
			if rec {
				rd.lat = append(rd.lat, ms(d))
			}
		}
	}()
	return rd
}

// stop ends the reader, waits for it, adds its requests to the
// report's counts and returns its latencies.
func (rd *reader) stop(rep *report) []float64 {
	rd.cancel()
	rd.wg.Wait()
	rep.Attempted += rd.sent
	rep.Failed += rd.failed
	return rd.lat
}
