// Package obshttp serves the observability surface over HTTP: the
// pprof endpoints, the runtime's expvar variables (/debug/vars), the
// trace snapshot (/debug/trace), the stage graph with build origins
// (/debug/stages), and the metrics registry in Prometheus text
// exposition format (/metrics). When the Registry is the Trace's own,
// /debug/trace and /metrics are two views of one store. It exists so
// every binary that wants a debug server — csdminer and csdserve —
// wires the same endpoints the same way instead of hand-registering
// handlers on the default mux.
//
// All endpoints are nil-tolerant: a nil Trace serves an empty (but
// structurally stable) snapshot, a nil Registry serves an empty
// exposition, and a nil Stages func serves an empty list — so callers
// wire what they have and the surface stays uniform.
package obshttp

import (
	"encoding/json"
	"expvar"
	"log"
	"net/http"
	"net/http/pprof"

	"csdm/internal/obs"
	"csdm/internal/stage"
)

// Options selects what the debug server exposes.
type Options struct {
	// Trace backs /debug/trace: its spans and its Registry's metrics.
	// Nil serves empty-but-stable JSON.
	Trace *obs.Trace
	// Registry backs /metrics (Prometheus text exposition 0.0.4) —
	// usually Trace.Registry(). Nil serves an empty document.
	Registry *obs.Registry
	// Stages backs /debug/stages: the declared stage graph with each
	// artifact's build origin. Nil serves an empty list.
	Stages func() []stage.Info
	// Logf, when set, receives the server's status messages (listen
	// address, serve errors). Nil logs errors via the log package and
	// drops status messages.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ContentTypeMetrics is the Prometheus text exposition content type.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// NewMux builds the debug mux: /debug/pprof/*, /debug/vars (the
// runtime's memstats and cmdline), /debug/trace, /debug/stages, and
// /metrics. It registers nothing on the default mux, so two servers
// with different options can coexist in one process.
func NewMux(o Options) *http.ServeMux {
	mux := http.NewServeMux()
	Register(mux, o)
	return mux
}

// Register mounts the debug endpoints on an existing mux, so a binary
// with its own application routes — csdserve's recognition API — adds
// the uniform observability surface next to them instead of running a
// second listener.
func Register(mux *http.ServeMux, o Options) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Trace.Snapshot())
	})

	mux.HandleFunc("/debug/stages", func(w http.ResponseWriter, _ *http.Request) {
		var infos []stage.Info
		if o.Stages != nil {
			infos = o.Stages()
		}
		out := make([]map[string]any, 0, len(infos))
		for _, in := range infos {
			m := map[string]any{
				"name":   in.Name,
				"deps":   in.Deps,
				"origin": in.Origin.String(),
			}
			if in.Site != "" {
				m["fault_site"] = in.Site
			}
			if in.Artifact != "" {
				m["artifact"], m["file"] = in.Artifact, in.File
			}
			if in.Err != nil {
				m["error"] = in.Err.Error()
			}
			out = append(out, m)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentTypeMetrics)
		if err := o.Registry.WritePrometheus(w); err != nil {
			o.logf("metrics write: %v", err)
		}
	})
}

// Serve starts the debug server in the background and returns
// immediately; a listen failure is logged, not fatal — the pipeline
// run matters more than its observability side-channel.
func Serve(addr string, o Options) {
	mux := NewMux(o)
	o.logf("debug server listening on http://%s/debug/pprof/ (also /debug/vars, /debug/trace, /debug/stages, /metrics)", addr)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			if o.Logf != nil {
				o.Logf("debug server: %v", err)
			} else {
				log.Printf("debug server: %v", err)
			}
		}
	}()
}
