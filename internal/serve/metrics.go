package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"crncompose/internal/httpx"
	"crncompose/internal/metrics"
	"crncompose/internal/progress"
	"crncompose/internal/trace"
)

// serveMetrics bundles every family the server registers on its
// registry (Config.Metrics, or a private one). All methods are
// nil-receiver safe so table-level tests can build bare Servers
// without a registry. Families:
//
//	crn_http_request_duration_seconds{endpoint}  histogram — per-route latency
//	crn_http_requests_total{endpoint,code}       counter
//	crn_jobs{state}                              gauge     — queued | running
//	crn_jobs_total{state}                        counter   — terminal transitions
//	crn_jobs_submitted_total                     counter
//	crn_jobs_degraded_total                      counter   — dist→local fallbacks
//	crn_progress_*{stage}                        the engine-progress adapter
//	crn_cache_*                                  registered by newResultCache
//	crn_httpx_*                                  the retry-client seam
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

	// progress feeds every engine run (sync checks, local job
	// rectangles, classify/synthesize/simulate) into the per-stage
	// families without touching engine code.
	progress *metrics.ProgressReporter

	// httpx is the retry-client seam registered on the same registry,
	// so one scrape covers any in-process httpx client this server
	// grows (and the families are advertised even while unused).
	httpx *httpx.Metrics
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
	m.progress = metrics.NewProgressReporter(reg)
	m.httpx = httpx.NewMetrics(reg)
	return m
}

// jobTransition records a job state change; "" means the job is being
// created. Gauges track the non-terminal states, counters the
// terminal ones. Callers hold jobs.mu, matching the state writes.
func (m *serveMetrics) jobTransition(from, to string) {
	if m == nil {
		return
	}
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
	if m == nil {
		return
	}
	m.jobsSubmitted.Inc()
}

func (m *serveMetrics) degraded() {
	if m == nil {
		return
	}
	m.jobsDegraded.Inc()
}

// jobTotals snapshots the cumulative terminal-transition counters for
// /v1/stats (nil when the server has no metrics).
func (m *serveMetrics) jobTotals() map[string]uint64 {
	if m == nil {
		return nil
	}
	return map[string]uint64{
		"submitted": m.jobsSubmitted.Value(),
		jobDone:     m.jobsDone.Value(),
		jobFailed:   m.jobsFailed.Value(),
		jobCanceled: m.jobsCanceled.Value(),
		"degraded":  m.jobsDegraded.Value(),
	}
}

// progressReporter returns a fresh metrics reporter for one engine run
// (see metrics.ProgressReporter.Run); a typed nil never escapes
// (progress.Post would treat a non-nil interface holding a nil pointer
// as live).
func (s *Server) progressReporter() progress.Reporter {
	if s.met == nil {
		return nil
	}
	return s.met.progress.Run()
}

// reporterFor builds the reporter for one engine run: the run's metrics
// progress adapter teed with a tracing one that turns engine stage events
// into child spans of parent. finish must be called once the engine run
// completes — it ends the open stage spans; it is safe to call when
// tracing is off. The engines themselves never see a clock or a span:
// stage timestamps come from this layer's clock via the adapter (the
// caller-owned-clock contract).
func (s *Server) reporterFor(parent trace.SpanContext) (rep progress.Reporter, finish func()) {
	base := s.progressReporter()
	tp := trace.NewProgressReporter(s.tr, time.Now, parent)
	if tp == nil {
		return base, func() {}
	}
	return progress.Multi(base, tp), func() { tp.Finish(time.Now()) }
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
// and request counter, and — for the /v1/* API routes of a tracing
// server — a serve.request root span. An incoming W3C traceparent header
// continues the caller's trace (that is how an httpx client's attempt
// span becomes this request's parent across processes); otherwise the
// request starts a fresh one. The span context rides the request context
// so everything downstream (cache layer, engines via the progress
// adapter, the dist handoff) parents under it. The wall-clock read lives
// here, in the serve layer — never in engine code (the crnlint
// determinism contract).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	traced := s.tr != nil && strings.HasPrefix(endpoint, "/v1/")
	if s.met == nil && !traced {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var sp *trace.Span
		if traced {
			// A missing or malformed header just starts a new trace.
			parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
			sp = s.tr.StartSpan(start, "serve.request", parent,
				trace.String("endpoint", endpoint),
				trace.String("method", r.Method))
			r = r.WithContext(trace.ContextSpan(r.Context(), sp))
		}
		h(rec, r)
		sp.End(time.Now(), trace.Int("code", int64(rec.code)))
		if s.met != nil {
			s.met.reqDur.With(endpoint).Observe(time.Since(start).Seconds())
			s.met.reqTotal.With(endpoint, strconv.Itoa(rec.code)).Inc()
		}
	}
}
