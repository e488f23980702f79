// Package serve implements verification-as-a-service: a long-running
// HTTP+JSON server over the classify → synthesize → verify → simulate
// pipeline, replacing one-shot CLI invocations that recompile and re-verify
// from scratch per run.
//
// # Endpoints
//
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 while draining)
//	GET    /v1/stats              cache and job counters
//	POST   /v1/classify           Theorem 5.2 classification of a library function
//	POST   /v1/synthesize         output-oblivious CRN synthesis (Lemma 6.2 / Thm 9.2)
//	POST   /v1/check              stable-computation model checking on a grid
//	POST   /v1/simulate           seeded Gillespie / fair-random ensembles
//	POST   /v1/jobs               submit a grid check as an asynchronous job
//	GET    /v1/jobs/{id}          job status (progress in completed rectangles)
//	DELETE /v1/jobs/{id}          cancel a queued/running job; drop a terminal one
//	GET    /v1/jobs/{id}/result   finished job body (the exact /v1/check bytes)
//
// # Caching
//
// Every computation is content-addressed: the canonical request — CRN text
// normalized through parse→String, function name, grid bounds, budgets,
// seeds, with all defaults filled in — is hashed (SHA-256, the JobSpec-hash
// discipline of internal/dist/checkpoint.go) and the response body is
// cached under that key with LRU eviction (Config.CacheMax). Every stored
// value is a 200 JSON body, so the body is all an entry holds; an error is
// answered 422 and never stored. Concurrent identical requests are
// deduplicated in flight: N simultaneous submissions of the same check cost
// exactly one engine run. /v1/classify, /v1/synthesize, /v1/simulate and a
// synchronous /v1/check all answer through one method, Server.answer, and
// a Server comes only from New, which registers the cache's counters on its
// registry. Because every engine in
// this module is deterministic — byte-identical GridResults at any worker
// count, claim schedule, or process count, seeded simulation —
// replaying cached bytes is indistinguishable from recomputing them; the
// cache is a correctness-preserving optimization, not an approximation.
//
// # Byte identity
//
// A /v1/check response body is byte-identical to `crncheck -json` for the
// same CRN, function, bounds, and budgets: both encode through
// reach.MarshalGridResultIndent. CI pins this across real processes, and
// the cache/singleflight tests pin that replayed bodies are those bytes.
//
// # Synchronous vs asynchronous
//
// Grids of at most Config.SyncGridLimit points are checked on the request
// path under the server-owned worker budget. Larger grids become jobs
// (202 + job id), each run off the request path under its own cancellable
// context. By default the server checks a job's whole grid itself, as one
// grid check, up to Config.MaxJobs jobs at once. With
// Config.DistCoordinator set each job gets an internal/dist coordinator
// that listens there and splits the grid into rectangles, which external
// `crncheck -join` workers compute, one job at a time. A
// dist handoff that cannot start, or that no worker reaches for one lease
// TTL, degrades instead of failing: the job finishes locally on the same
// coordinator, keeping the rectangles workers completed, with a
// byte-identical body and a "degraded" marker in its status.
// DELETE /v1/jobs/{id} cancels a job; on SIGTERM the
// server drains (Drain): admission closes, in-flight jobs finish (or are
// canceled at the drain deadline), and the process exits cleanly.
//
// # Instrumentation
//
// Every serve event — a /v1/* request, its cache lookup or computation, a
// job, its queue wait, a degradation and its rectangles, each engine run's
// stages — is one call on the server's trace.Seam: it records the span
// (Config.Tracer), observes crn_span_duration_seconds{name,outcome}
// (Config.Metrics) and stamps the event's log lines (Config.Logf) with its
// trace and span ids. A dist-mode job's coordinator shares all three.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crncompose/internal/classify"
	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/dist"
	"crncompose/internal/metrics"
	"crncompose/internal/parse"
	"crncompose/internal/sim"
	"crncompose/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultCacheMax      = 1024
	DefaultSyncGridLimit = 512
	DefaultMaxJobs       = 2
	DefaultJobTTL        = 15 * time.Minute
)

const contentTypeJSON = "application/json"

// Config tunes the server. The zero value serves with all defaults.
type Config struct {
	// Workers is the reach worker budget for synchronous checks and local
	// jobs (reach.WithWorkers semantics: 0 = all CPUs).
	Workers int
	// CacheMax bounds the result cache in entries (LRU eviction beyond it).
	// 0 means DefaultCacheMax; negative disables storage entirely (in-flight
	// deduplication still applies).
	CacheMax int
	// SyncGridLimit is the largest grid (in input points) checked
	// synchronously on the request path; larger /v1/check grids are answered
	// 202 with an async job. 0 means DefaultSyncGridLimit.
	SyncGridLimit int64
	// MaxJobs is the admission budget for concurrently executing local
	// async jobs (0 = DefaultMaxJobs): each job's goroutine waits for one
	// of MaxJobs slots, and up to 256 jobs wait at once (a submission past
	// them fails "job queue full"). Each running job still gets the full
	// Workers budget. With DistCoordinator set jobs run one at a time: each
	// one's coordinator binds that address.
	MaxJobs int
	// JobTTL bounds how long a terminal (done/failed/canceled) job stays in
	// the job table: the terminal transition arms a timer that removes the
	// entry after JobTTL (0 = DefaultJobTTL, negative disables expiry). A
	// done job's result body remains reachable through the response cache
	// after the table entry expires: re-submitting the same request yields
	// a fresh pre-completed job instantly.
	JobTTL time.Duration
	// DistCoordinator, when nonempty, is the host:port each async job's
	// coordinator listens on for external workers (`crncheck -join`),
	// which compute its dist.DefaultShards rectangles. Empty checks each
	// job's grid on the local engine. A coordinator that cannot bind there,
	// or that no worker reaches for LeaseTTL, degrades its job (runDist).
	DistCoordinator string
	// LeaseTTL is the dist lease TTL (0 = dist.DefaultLeaseTTL); after it a
	// silent worker loses its rectangle and a job no worker reached degrades.
	LeaseTTL time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Metrics is the registry GET /metrics renders and every server
	// counter registers on (cache, jobs, per-endpoint latency, engine
	// progress, crn_span_duration_seconds). Nil gets a private registry,
	// so the endpoint always works; inject one to aggregate several
	// components onto a single scrape.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records spans: a serve.request root per /v1/*
	// request (continuing an incoming W3C traceparent header when one is
	// present), cache-lookup/singleflight/compute child spans, engine stage
	// spans via the progress adapter, and per-job spans for async jobs —
	// handed onward to the dist coordinator in dist mode so one trace id
	// spans submitter, coordinator, and workers. Nil disables tracing; the
	// request path then still observes each event's duration, but records
	// no span.
	Tracer *trace.Tracer
}

// Server is the verification service. Create it with New, the only
// constructor; serve via Handler (any http mux/server) or
// Start/Addr/Shutdown.
type Server struct {
	cfg   Config
	cache *resultCache
	jobs  *jobTable
	met   *serveMetrics
	// seam instruments every serve event (requests, cache layer, jobs,
	// rectangles, engine runs) on the server's tracer, registry and Logf.
	seam *trace.Seam

	baseCtx context.Context
	cancel  context.CancelFunc

	// draining is set by Drain, under the job table's lock: /readyz answers
	// 503 and new job submissions are rejected while in-flight jobs run to
	// completion.
	draining atomic.Bool
	// jobWG counts every job's goroutine, queued or running, so Drain can
	// await them.
	jobWG sync.WaitGroup
	// slots is the job admission semaphore: MaxJobs slots, one in dist mode.
	slots chan struct{}

	// testComputed, when non-nil, observes every real engine computation
	// (cache misses only) with the operation name — how tests count that N
	// deduplicated requests cost one run.
	testComputed func(op string)

	srv *http.Server
	ln  net.Listener
}

// New builds a Server.
func New(cfg Config) *Server {
	switch {
	case cfg.CacheMax == 0:
		cfg.CacheMax = DefaultCacheMax
	case cfg.CacheMax < 0:
		cfg.CacheMax = 0
	}
	if cfg.SyncGridLimit == 0 {
		cfg.SyncGridLimit = DefaultSyncGridLimit
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = DefaultJobTTL
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = dist.DefaultLeaseTTL
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheMax, cfg.Metrics),
		jobs:  newJobTable(),
		met:   newServeMetrics(cfg.Metrics),
		seam:  trace.NewSeam(cfg.Tracer, cfg.Metrics, cfg.Logf),
	}
	cfg.Tracer.CountSpans(cfg.Metrics)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	slots := cfg.MaxJobs
	if cfg.DistCoordinator != "" {
		slots = 1 // every job's coordinator binds the one address
	}
	s.slots = make(chan struct{}, slots)
	return s
}

func (s *Server) computed(op string) {
	if s.testComputed != nil {
		s.testComputed(op)
	}
}

// Handler returns the server's HTTP API. Every route is wrapped with
// the per-endpoint duration histogram and request counter; the
// endpoint label is the route pattern, so label cardinality is the
// route count, not the path space. GET /metrics itself is not
// instrumented — a scrape should not grow the families it reads.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(endpoint, h))
	}
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	handle("GET /readyz", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false, "draining": true})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("POST /v1/classify", "/v1/classify", s.handleClassify)
	handle("POST /v1/synthesize", "/v1/synthesize", s.handleSynthesize)
	handle("POST /v1/check", "/v1/check", s.handleCheck)
	handle("POST /v1/simulate", "/v1/simulate", s.handleSimulate)
	handle("POST /v1/jobs", "/v1/jobs", s.handleJobSubmit)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobStatus)
	handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobDelete)
	handle("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", s.handleJobResult)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	return mux
}

// answer serves one content-addressed computation: it replays key's stored
// body, joins an identical in-flight computation, or runs compute once. The
// computation runs under context.Background(), not the request's context:
// parked identical requests share the flight, so one client hanging up must
// not cancel it. An error is answered 422 and never stored; a body is
// written 200 with its X-Cache source.
//
// Its event names how the body was produced — serve.cache.hit (replayed),
// serve.singleflight.park (joined), serve.compute (this request ran the
// engine). The event is started retroactively, because which of the three
// happened is only known once the cache returns; its start is the instant
// the request entered the cache layer, so durations are still honest.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, op, key string, compute func(context.Context) ([]byte, error)) {
	start := time.Now()
	body, source, err := s.cache.do(key, func() ([]byte, error) {
		s.computed(op)
		return compute(context.Background())
	})
	name := "serve.compute"
	switch source {
	case cacheHit:
		name = "serve.cache.hit"
	case cacheDedup:
		name = "serve.singleflight.park"
	}
	var errAttr []trace.Attr
	if err != nil {
		errAttr = []trace.Attr{trace.String("error", err.Error())}
	}
	s.seam.Start(start, name, trace.FromContext(r.Context()), trace.String("op", op)).
		End(time.Now(), trace.Outcome(err), errAttr...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeCached(w, body, source)
}

// Stats is the GET /v1/stats document. Cache and JobsTotal read from
// the same counters GET /metrics renders (the registry is the single
// source of truth); Jobs counts the jobs currently in the table by
// state, which is a table snapshot, not a cumulative counter — expired
// entries leave it, which is why JobsTotal exists.
type Stats struct {
	Cache cacheStats     `json:"cache"`
	Jobs  map[string]int `json:"jobs"`
	// JobsTotal is cumulative since process start: jobs submitted, jobs
	// reaching each terminal state, and degraded dist handoffs.
	JobsTotal map[string]uint64 `json:"jobs_total,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{Cache: s.cache.stats(), Jobs: map[string]int{}, JobsTotal: s.met.jobTotals()}
	s.jobs.mu.Lock()
	for _, jb := range s.jobs.jobs {
		st.Jobs[jb.state]++
	}
	s.jobs.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// ClassifyRequest is the JSON body of POST /v1/classify: decide Theorem 5.2
// oblivious computability of a library function.
type ClassifyRequest struct {
	Func string `json:"func"`
	// Bound is the classifier census bound (0 = classifier default).
	Bound int64 `json:"bound,omitempty"`
}

// ClassifyResponse reports the verdict: the normal form's shape for a
// computable function, the reason plus the Lemma 4.1 contradiction
// certificate for a non-computable one.
type ClassifyResponse struct {
	Func          string  `json:"func"`
	Computable    bool    `json:"computable"`
	Reason        string  `json:"reason,omitempty"`
	Contradiction string  `json:"contradiction,omitempty"`
	Period        int64   `json:"period,omitempty"`
	N             []int64 `json:"n,omitempty"`
	Terms         int     `json:"terms,omitempty"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	f, err := core.Lookup(req.Func)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := requestKey(struct {
		V     int    `json:"v"`
		Op    string `json:"op"`
		Func  string `json:"func"`
		Bound int64  `json:"bound"`
	}{1, "classify", req.Func, req.Bound})
	s.answer(w, r, "classify", key, func(context.Context) ([]byte, error) {
		prog := s.seam.Progress(time.Now, trace.FromContext(r.Context()), 0)
		res, err := classify.Analyze(f, classify.Options{Bound: req.Bound, WitnessSearch: true, Progress: prog})
		prog.Finish(time.Now(), trace.Outcome(err))
		if err != nil {
			return nil, err
		}
		resp := ClassifyResponse{Func: req.Func, Computable: res.Computable, Period: res.Period}
		if res.Computable {
			resp.N = res.N
			resp.Terms = len(res.EventualMin.Terms)
		} else {
			resp.Reason = res.Reason
			if res.Contradiction != nil {
				resp.Contradiction = res.Contradiction.String()
			}
		}
		return encodeJSON(resp)
	})
}

// SynthesizeRequest is the JSON body of POST /v1/synthesize: build an
// output-oblivious CRN for a library function (the crnsynth pipeline).
type SynthesizeRequest struct {
	Func string `json:"func"`
	// Bound is the classifier census bound (0 = default); N overrides the
	// eventual threshold (0 = classifier's; smaller N ⇒ smaller CRN).
	Bound int64 `json:"bound,omitempty"`
	N     int64 `json:"n,omitempty"`
	// Leaderless selects the Theorem 9.2 construction (1D superadditive).
	Leaderless bool `json:"leaderless,omitempty"`
}

// SynthesizeResponse carries the CRN in the text format accepted by
// /v1/check, /v1/simulate, crncheck, and crnsim.
type SynthesizeResponse struct {
	Func            string `json:"func"`
	CRN             string `json:"crn"`
	Species         int    `json:"species"`
	Reactions       int    `json:"reactions"`
	OutputOblivious bool   `json:"output_oblivious"`
	Leaderless      bool   `json:"leaderless,omitempty"`
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	if !readJSON(w, r, &req) {
		return
	}
	f, err := core.Lookup(req.Func)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := requestKey(struct {
		V          int    `json:"v"`
		Op         string `json:"op"`
		Func       string `json:"func"`
		Bound      int64  `json:"bound"`
		N          int64  `json:"n"`
		Leaderless bool   `json:"leaderless"`
	}{1, "synthesize", req.Func, req.Bound, req.N, req.Leaderless})
	s.answer(w, r, "synthesize", key, func(ctx context.Context) ([]byte, error) {
		prog := s.seam.Progress(time.Now, trace.FromContext(r.Context()), 0)
		sys, err := core.Synthesize(ctx, f, req.Bound, req.N, req.Leaderless, prog)
		prog.Finish(time.Now(), trace.Outcome(err))
		if err != nil {
			return nil, err
		}
		return encodeJSON(SynthesizeResponse{
			Func: f.Name, CRN: sys.Net.String(),
			Species: sys.Net.NumSpecies(), Reactions: len(sys.Net.Reactions),
			OutputOblivious: sys.Net.IsOutputOblivious(), Leaderless: req.Leaderless,
		})
	})
}

// Admission bounds on /v1/simulate: simulation runs on the request path, so
// a single request may not ask for more work than a synchronous response
// can reasonably carry (the CLI, answering only its own invoker, has no
// such cap).
const (
	MaxSimTrials   = 10_000
	MaxSimMaxSteps = int64(1) << 30
)

// MaxCheckConfigs bounds a /v1/check or /v1/jobs request's per-input
// exploration budget (maxconfigs). Far beyond the library constructions'
// largest inputs, and far inside the explorer's int32 configuration ids,
// whose overflow would panic a pool goroutine and take the server down.
const MaxCheckConfigs = 1 << 26

// MaxCRNSpecies and MaxCRNReactions bound the CRN of a /v1/check, /v1/jobs
// or /v1/simulate request. Every configuration the explorer interns keeps a
// row of one count per species and an applicable set of one bit per
// reaction, so these bound a request's memory per configuration. The
// library's largest construction at crnsynth's defaults, fig3b with 273
// species and 189 reactions, sits far below both.
const (
	MaxCRNSpecies   = 4096
	MaxCRNReactions = 4096
)

// checkCRNSize rejects a CRN over MaxCRNSpecies species or MaxCRNReactions
// reactions. A CRN names at most its roles and one species per reaction
// term, so only a CRN with more terms than MaxCRNSpecies pays for building
// its species table here; a cached request's CRN never does.
func checkCRNSize(c *crn.CRN) error {
	if n := len(c.Reactions); n > MaxCRNReactions {
		return fmt.Errorf("crn has %d reactions, more than the per-request bound %d", n, MaxCRNReactions)
	}
	names := len(c.Inputs) + 2 // the output and the leader
	for _, r := range c.Reactions {
		names += len(r.Reactants) + len(r.Products)
	}
	if names <= MaxCRNSpecies {
		return nil
	}
	if n := c.NumSpecies(); n > MaxCRNSpecies {
		return fmt.Errorf("crn has %d species, more than the per-request bound %d", n, MaxCRNSpecies)
	}
	return nil
}

// MaxRequestBytes bounds every JSON request body; a larger one is answered
// 400 before it is fully read. The largest library construction
// (crnsynth -f fig4a) is about 8 KB of CRN text.
const MaxRequestBytes = 1 << 20

// SimulateRequest is the JSON body of POST /v1/simulate: run a seeded
// ensemble of stochastic simulations. Defaults are crnsim's (method
// sim.DefaultMethod, 1 trial, seed 1, step budget sim.DefaultMaxSteps);
// the step budget is admission-capped at MaxSimMaxSteps, trials at
// MaxSimTrials.
type SimulateRequest struct {
	CRN    string  `json:"crn"`
	X      []int64 `json:"x"`
	Method string  `json:"method,omitempty"` // a sim.RunnerByName method
	Trials int     `json:"trials,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	// MaxSteps bounds each trial; SilentSteps enables the sound silence
	// convergence criterion (0 = terminal only).
	MaxSteps    int64 `json:"maxsteps,omitempty"`
	SilentSteps int64 `json:"silent,omitempty"`
}

// SimTrial is one trial's outcome.
type SimTrial struct {
	Output    int64   `json:"output"`
	Steps     int64   `json:"steps"`
	Time      float64 `json:"time,omitempty"` // simulated time; Gillespie only
	Converged bool    `json:"converged"`
}

// SimSummary mirrors sim.Stats.
type SimSummary struct {
	Trials      int     `json:"trials"`
	Converged   int     `json:"converged"`
	MinOutput   int64   `json:"min_output"`
	MaxOutput   int64   `json:"max_output"`
	MeanOutput  float64 `json:"mean_output"`
	AllEqual    bool    `json:"all_equal"`
	MedianSteps int64   `json:"median_steps"`
}

// SimulateResponse is the ensemble report. Trial i is seeded with seed+i,
// so the whole document is deterministic and cacheable by content address.
type SimulateResponse struct {
	Trials  []SimTrial `json:"trials"`
	Summary SimSummary `json:"summary"`
}

// simJob is a fully resolved simulation: the canonical request (defaults
// filled in, CRN re-rendered through parse→String), its content address,
// and the runner and initial configuration it resolves to.
type simJob struct {
	req    SimulateRequest
	key    string
	runner sim.RunnerCtx
	start  crn.Config
}

// resolveSimulate canonicalizes a SimulateRequest the way resolveCheck does
// a CheckRequest: fill defaults, apply the admission bounds, resolve the
// method, parse the CRN and check the input arity. Errors are client errors
// (http.StatusBadRequest).
func resolveSimulate(req SimulateRequest) (*simJob, error) {
	if req.Method == "" {
		req.Method = sim.DefaultMethod
	}
	if req.Trials <= 0 {
		req.Trials = 1
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.MaxSteps <= 0 {
		req.MaxSteps = sim.DefaultMaxSteps
	}
	if req.Trials > MaxSimTrials {
		return nil, fmt.Errorf("trials %d exceeds the per-request bound %d", req.Trials, MaxSimTrials)
	}
	if req.MaxSteps > MaxSimMaxSteps {
		return nil, fmt.Errorf("maxsteps %d exceeds the per-request bound %d", req.MaxSteps, MaxSimMaxSteps)
	}
	if req.SilentSteps < 0 {
		return nil, fmt.Errorf("negative silent steps")
	}
	runner, err := sim.RunnerByName(req.Method)
	if err != nil {
		return nil, err
	}
	c, err := parse.Parse(req.CRN)
	if err != nil {
		return nil, err
	}
	if err := checkCRNSize(c); err != nil {
		return nil, err
	}
	if len(req.X) != c.Dim() {
		return nil, fmt.Errorf("x has %d values, CRN takes %d inputs", len(req.X), c.Dim())
	}
	start, err := c.InitialConfig(req.X)
	if err != nil {
		return nil, err
	}
	req.CRN = c.String()
	return &simJob{
		req: req,
		key: requestKey(struct {
			V  int    `json:"v"`
			Op string `json:"op"`
			SimulateRequest
		}{1, "simulate", req}),
		runner: runner,
		start:  start,
	}, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var body SimulateRequest
	if !readJSON(w, r, &body) {
		return
	}
	j, err := resolveSimulate(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := j.req
	s.answer(w, r, "simulate", j.key, func(ctx context.Context) ([]byte, error) {
		prog := s.seam.Progress(time.Now, trace.FromContext(r.Context()), 0)
		opts := []sim.Option{sim.WithMaxSteps(req.MaxSteps), sim.WithProgress(prog)}
		if req.SilentSteps > 0 {
			opts = append(opts, sim.WithSilentSteps(req.SilentSteps))
		}
		results, err := sim.EnsembleCtx(ctx, j.runner, j.start, req.Trials, req.Seed, opts...)
		prog.Finish(time.Now(), trace.Outcome(err))
		if err != nil {
			return nil, err
		}
		resp := SimulateResponse{Trials: make([]SimTrial, len(results))}
		for i, res := range results {
			resp.Trials[i] = SimTrial{
				Output:    res.Final.Output(),
				Steps:     res.Steps,
				Time:      res.Time,
				Converged: res.Converged,
			}
		}
		st := sim.Summarize(results)
		resp.Summary = SimSummary{
			Trials:      st.Trials,
			Converged:   st.Converged,
			MinOutput:   st.MinOutput,
			MaxOutput:   st.MaxOutput,
			MeanOutput:  st.MeanOutput,
			AllEqual:    st.AllEqual,
			MedianSteps: st.MedianSteps,
		}
		return encodeJSON(resp)
	})
}

// Start listens on addr (host:port; port 0 picks a free one — see Addr) and
// serves the API in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	s.seam.Logf("serving on %s (workers=%d cache-max=%d sync-grid=%d dist=%q)",
		ln.Addr(), s.cfg.Workers, s.cfg.CacheMax, s.cfg.SyncGridLimit, s.cfg.DistCoordinator)
	return nil
}

// Addr returns the listening address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops the HTTP server and cancels every job immediately: queued
// jobs end canceled at once, running ones unwind at their next chunk
// boundary, and none is awaited. For a clean exit that lets in-flight jobs
// finish, use Drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// Drain is graceful shutdown: stop admitting jobs (/readyz flips to 503,
// and POST /v1/jobs and a /v1/check too large to answer synchronously
// answer 503), let queued and running jobs finish, then stop the HTTP
// server. If ctx expires first, the remaining jobs are canceled — queued
// ones at once, running ones at their next cancellation point — and their
// goroutines are given a short bounded grace to unwind. Drain always
// returns nil after a best-effort stop so callers can exit 0 on SIGTERM.
func (s *Server) Drain(ctx context.Context) error {
	s.jobs.mu.Lock()
	s.draining.Store(true)
	s.jobs.mu.Unlock()
	s.seam.Logf("drain: admission closed; awaiting jobs")
	jobsDone := make(chan struct{})
	go func() { s.jobWG.Wait(); close(jobsDone) }()
	select {
	case <-jobsDone:
	case <-ctx.Done():
		s.seam.Logf("drain: deadline reached; canceling remaining jobs")
		s.cancel()
		// Bounded: a canceled engine returns within one chunk of work, but
		// never hold the process hostage.
		select {
		case <-jobsDone:
		case <-time.After(5 * time.Second):
			s.seam.Logf("drain: job runners still unwinding at exit")
		}
	}
	s.cancel()
	if s.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(sctx)
	}
	s.seam.Logf("drain: complete")
	return nil
}

// encodeJSON renders a response document in the server's JSON presentation
// form (indented, trailing newline — stable bytes for the cache).
func encodeJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSON writes v as an uncached JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, body)
}

// writeCached writes a stored or just-computed body, a 200 JSON document,
// tagging its source in the X-Cache header.
func writeCached(w http.ResponseWriter, body []byte, source string) {
	w.Header().Set("X-Cache", source)
	writeBody(w, http.StatusOK, body)
}

// writeBody writes a JSON response body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", contentTypeJSON)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError reports an error as {"error": "..."} with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	writeBody(w, status, append(b, '\n'))
}

// readJSON decodes the request body, at most MaxRequestBytes of it, into v,
// answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return false
	}
	return true
}
