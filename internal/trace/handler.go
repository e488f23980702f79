package trace

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// traceGroup is one trace's spans in the GET /debug/traces document.
type traceGroup struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
}

// tracesDoc is the GET /debug/traces response body.
type tracesDoc struct {
	// Recorded and Dropped mirror Tracer.Stats: spans ever recorded, and
	// how many of those were evicted by ring overflow (a nonzero Dropped
	// means old traces may be incomplete).
	Recorded uint64       `json:"recorded"`
	Dropped  uint64       `json:"dropped"`
	Traces   []traceGroup `json:"traces"`
}

// Handler serves GET /debug/traces: the ring's finished spans grouped by
// trace, in the deterministic export order. Query parameters:
//
//	?trace=<32-hex-digit id>  only that trace
//	?format=chrome            Chrome trace-event JSON instead (load the
//	                          body in Perfetto / chrome://tracing)
//
// Mount it on an operator-only listener (the CLIs put it next to
// /debug/pprof on -debug-addr), not the public API.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := t.Snapshot()
		if id := r.URL.Query().Get("trace"); id != "" {
			filtered := spans[:0]
			for _, d := range spans {
				if d.TraceID == id {
					filtered = append(filtered, d)
				}
			}
			spans = filtered
		}
		if r.URL.Query().Get("format") == "chrome" {
			b, err := ExportChromeTrace(spans)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(b)
			return
		}
		recorded, dropped := t.Stats()
		doc := tracesDoc{Recorded: recorded, Dropped: dropped, Traces: []traceGroup{}}
		// sortedSpans orders by trace id first, so each trace's spans are
		// consecutive and grouping is a single pass.
		for _, d := range sortedSpans(spans) {
			if n := len(doc.Traces); n == 0 || doc.Traces[n-1].TraceID != d.TraceID {
				doc.Traces = append(doc.Traces, traceGroup{TraceID: d.TraceID})
			}
			g := &doc.Traces[len(doc.Traces)-1]
			g.Spans = append(g.Spans, d)
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(b, '\n'))
	})
}

// StartDebugServer serves net/http/pprof and, when t is non-nil, t's
// Handler at GET /debug/traces on its own listener, so profiles and traces
// come from a separate, operator-only port — never a public API or
// protocol listener. It returns the bound address (port 0 picks a free
// one) and serves until the process exits.
func StartDebugServer(addr string, t *Tracer) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if t != nil {
		mux.Handle("GET /debug/traces", t.Handler())
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr(), nil
}
