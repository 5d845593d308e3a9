// Command csdserve is the hardened online recognition service: it
// loads a framed .csdf City Semantic Diagram snapshot (written by
// csdminer -save-diagram) and serves semantic recognition over HTTP.
//
// Usage:
//
//	csdserve -snapshot diagram.csdf [-patterns patterns.json] [-addr :7070]
//
// Routes:
//
//	POST /v1/recognize   annotate the posted stay points (Algorithm 3)
//	GET  /v1/units       semantic units near ?lon&lat[&radius]
//	GET  /v1/patterns    mined patterns near ?lon&lat[&radius][&limit]
//	GET  /v1/info        live snapshot generation, sizes and extent
//	POST /admin/reload   validated snapshot hot-swap (also SIGHUP)
//	GET  /healthz        liveness (200 while the process runs)
//	GET  /readyz         routability (503 before load and during drain)
//	GET  /metrics        Prometheus exposition (plus /debug/pprof etc.)
//
// Robustness envelope: -admission-limit bounds the requests in service
// (a small wait queue of -admission-queue waiters fronts it; beyond
// that the server sheds with 503 + Retry-After), -request-timeout
// bounds each request with its own deadline, handler panics are
// contained per-request, and SIGHUP or /admin/reload hot-swaps the
// snapshot through full CRC + sanity validation — a corrupt file keeps
// the old diagram serving. SIGINT/SIGTERM starts the graceful drain:
// /readyz flips to 503 immediately, in-flight requests finish within
// -drain-timeout, and the process exits 0 on a clean drain or 5 when
// requests were still running at the deadline.
//
// Exit codes: 2 usage, 3 input (unreadable/corrupt snapshot or
// patterns), 4 runtime (listen failure), 5 drain timeout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"csdm/internal/fault"
	"csdm/internal/obs"
	"csdm/internal/obs/obshttp"
	"csdm/internal/serve"
)

// The exit codes callers and scripts can branch on.
const (
	exitUsage   = 2 // bad flags
	exitInput   = 3 // unreadable or invalid snapshot/patterns file
	exitRuntime = 4 // listen failure
	exitDrain   = 5 // drain timeout expired with requests in flight
)

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func die(code int, err error) {
	log.Print(err)
	os.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("csdserve: ")
	var (
		snapshot   = flag.String("snapshot", "", "framed .csdf diagram snapshot to serve (or -current)")
		current    = flag.String("current", "", "serve the snapshot published by a checkpoint directory's CURRENT pointer (streaming ingestion)")
		watch      = flag.Duration("watch", 0, "with -current, poll CURRENT at this interval and hot-swap newly published generations (0 = SIGHUP only)")
		patterns   = flag.String("patterns", "", "mined pattern set (csdminer mine -save-patterns) for /v1/patterns")
		addr       = flag.String("addr", ":7070", "listen address")
		admLimit   = flag.Int("admission-limit", runtime.NumCPU(), "max requests in service concurrently")
		admQueue   = flag.Int("admission-queue", -1, "wait-queue depth beyond the admission limit before shedding (-1 = equal to the limit)")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "per-request deadline (0 = none)")
		drainTO    = flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight requests on SIGINT/SIGTERM")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint sent with shed responses")
		faultSpec  = flag.String("fault", "", "fault-injection spec site:kind:trigger[,...] (testing only)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection rules (testing only)")
	)
	flag.Parse()
	if (*snapshot == "") == (*current == "") || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: csdserve -snapshot diagram.csdf | -current ckptdir [flags]")
		os.Exit(exitUsage)
	}
	if *watch != 0 && *current == "" {
		fmt.Fprintln(os.Stderr, "csdserve: -watch requires -current")
		os.Exit(exitUsage)
	}
	if in, err := fault.Parse(*faultSpec, *faultSeed); err != nil {
		die(exitUsage, err)
	} else if in != nil {
		fault.Activate(in)
		progress("fault injection active: %s (seed %d)", *faultSpec, *faultSeed)
	}

	// A serving process always carries its metrics registry: the
	// request-path families seeded at zero by serve.New, the fault
	// counters, and the runtime sampler's process-health gauges, all
	// scraped from /metrics on the service listener.
	reg := obs.NewRegistry()
	fault.SetMetrics(reg)
	stopSampler := obs.StartRuntimeSampler(reg, time.Second)
	defer stopSampler()

	srv := serve.New(serve.Config{
		AdmissionLimit: *admLimit,
		QueueSlack:     *admQueue,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
		Registry:       reg,
		Logf:           progress,
	})
	obshttp.Register(srv.Mux(), obshttp.Options{Registry: reg, Logf: progress})

	if *current != "" {
		if err := srv.LoadCurrent(*current); err != nil {
			die(exitInput, err)
		}
	} else if err := srv.LoadSnapshot(*snapshot); err != nil {
		die(exitInput, err)
	}
	if *patterns != "" {
		// LoadPatterns remembers the path: every reload (SIGHUP, watch)
		// re-reads it inside the same validated swap.
		if err := srv.LoadPatterns(*patterns); err != nil {
			die(exitInput, err)
		}
	}
	if *watch > 0 {
		stopWatch := srv.StartWatch(*watch)
		defer stopWatch()
		progress("watching CURRENT in %s every %s", *current, *watch)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		die(exitRuntime, fmt.Errorf("listen %s: %w", *addr, err))
	}
	progress("recognition service listening on http://%s (admission limit %d, queue %d, request timeout %s)",
		bound, *admLimit, *admQueue, *reqTimeout)

	// Signal loop: SIGHUP hot-swaps, SIGINT/SIGTERM drains. Reload
	// failures are logged and counted but never fatal — the old
	// snapshot keeps serving.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if _, err := srv.Reload(); err != nil {
				progress("SIGHUP reload failed: %v", err)
			}
			continue
		}
		progress("%s received: draining (timeout %s)", sig, *drainTO)
		if err := srv.Drain(*drainTO); err != nil {
			die(exitDrain, fmt.Errorf("drain timed out with requests in flight: %w", err))
		}
		progress("drained cleanly")
		return
	}
}
