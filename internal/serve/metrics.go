package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

// serveMetrics bundles every family the server registers on its
// registry (Config.Metrics, or a private one). New, the only way to
// build a Server, always builds it. Families:
//
//	crn_http_request_duration_seconds{endpoint}  histogram — per-route latency
//	crn_http_requests_total{endpoint,code}       counter
//	crn_jobs{state}                              gauge     — queued | running
//	crn_jobs_total{state}                        counter   — terminal transitions
//	crn_jobs_submitted_total                     counter
//	crn_jobs_degraded_total                      counter   — dist→local fallbacks
//	crn_cache_*                                  registered by newResultCache
//
// The server's trace.Seam adds crn_span_duration_seconds{name,outcome}
// (serve.* events and engine stages) and, through each engine run's
// progress adapter, crn_progress_*{stage}.
//
// The endpoint label is the mux route pattern ("/v1/jobs/{id}"), not
// the raw path, so label cardinality stays bounded.
type serveMetrics struct {
	reg *metrics.Registry

	reqDur   *metrics.HistogramVec
	reqTotal *metrics.CounterVec

	jobsQueued    *metrics.Gauge
	jobsRunning   *metrics.Gauge
	jobsSubmitted *metrics.Counter
	jobsDone      *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCanceled  *metrics.Counter
	jobsDegraded  *metrics.Counter
}

func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	m := &serveMetrics{reg: reg}
	m.reqDur = reg.HistogramVec("crn_http_request_duration_seconds",
		"API request latency by route pattern.", metrics.DefBuckets, "endpoint")
	m.reqTotal = reg.CounterVec("crn_http_requests_total",
		"API requests by route pattern and status code.", "endpoint", "code")
	states := reg.GaugeVec("crn_jobs",
		"Async grid jobs currently in a non-terminal state.", "state")
	m.jobsQueued = states.With(jobQueued)
	m.jobsRunning = states.With(jobRunning)
	totals := reg.CounterVec("crn_jobs_total",
		"Async grid jobs that reached a terminal state, by state.", "state")
	m.jobsDone = totals.With(jobDone)
	m.jobsFailed = totals.With(jobFailed)
	m.jobsCanceled = totals.With(jobCanceled)
	m.jobsSubmitted = reg.Counter("crn_jobs_submitted_total",
		"Async grid jobs created (identical re-submissions attach to the existing job and are not counted).")
	m.jobsDegraded = reg.Counter("crn_jobs_degraded_total",
		"Dist handoffs that fell back to local execution (byte-identical result, degraded marker).")
	return m
}

// jobTransition records a job state change; "" means the job is being
// created. Gauges track the non-terminal states, counters the
// terminal ones. Callers hold jobs.mu, matching the state writes.
func (m *serveMetrics) jobTransition(from, to string) {
	switch from {
	case jobQueued:
		m.jobsQueued.Dec()
	case jobRunning:
		m.jobsRunning.Dec()
	}
	switch to {
	case jobQueued:
		m.jobsQueued.Inc()
	case jobRunning:
		m.jobsRunning.Inc()
	case jobDone:
		m.jobsDone.Inc()
	case jobFailed:
		m.jobsFailed.Inc()
	case jobCanceled:
		m.jobsCanceled.Inc()
	}
}

func (m *serveMetrics) submitted() {
	m.jobsSubmitted.Inc()
}

func (m *serveMetrics) degraded() {
	m.jobsDegraded.Inc()
}

// jobTotals snapshots the cumulative terminal-transition counters for
// /v1/stats.
func (m *serveMetrics) jobTotals() map[string]uint64 {
	return map[string]uint64{
		"submitted": m.jobsSubmitted.Value(),
		jobDone:     m.jobsDone.Value(),
		jobFailed:   m.jobsFailed.Value(),
		jobCanceled: m.jobsCanceled.Value(),
		"degraded":  m.jobsDegraded.Value(),
	}
}

// statusRecorder captures the status code written by a handler for
// the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint duration histogram
// and request counter, and — for the /v1/* API routes — a serve.request
// event on the server's seam. On a tracing server an incoming W3C
// traceparent header continues the caller's trace (that is how an httpx
// client's attempt span becomes this request's parent across processes);
// otherwise the request starts a fresh one. The span context rides the
// request context so everything downstream (cache layer, engines via the
// progress adapter, the dist handoff) parents under it. The wall-clock
// read lives here, in the serve layer — never in engine code (the crnlint
// determinism contract).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	api := strings.HasPrefix(endpoint, "/v1/")
	traced := api && s.cfg.Tracer != nil
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var ev trace.Event
		if api {
			var parent trace.SpanContext
			if traced {
				// A missing or malformed header just starts a new trace.
				parent, _ = trace.ParseTraceparent(r.Header.Get("traceparent"))
			}
			ev = s.seam.Start(start, "serve.request", parent,
				trace.String("endpoint", endpoint),
				trace.String("method", r.Method))
			if traced {
				r = r.WithContext(trace.ContextWith(r.Context(), ev.Context()))
			}
		}
		h(rec, r)
		end := time.Now()
		ev.End(end, requestOutcome(rec.code), trace.Int("code", int64(rec.code)))
		s.met.reqDur.With(endpoint).ObserveSince(start, end)
		s.met.reqTotal.With(endpoint, strconv.Itoa(rec.code)).Inc()
	}
}

// requestOutcome is a serve.request event's outcome: "ok" below 400,
// "rejected" for a 4xx, "error" for a 5xx.
func requestOutcome(code int) string {
	switch {
	case code >= 500:
		return "error"
	case code >= 400:
		return "rejected"
	}
	return "ok"
}
