package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/metrics"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// Defaults for CoordinatorConfig zero values.
const (
	DefaultShards   = 16
	DefaultLeaseTTL = 30 * time.Second
)

// CoordinatorConfig describes a distributed CheckGrid job.
type CoordinatorConfig struct {
	// CRN is the network under verification; its text form is shipped to
	// workers and it rebinds decoded witness configurations.
	CRN *crn.CRN
	// Func names the function the CRN should compute. Workers resolve the
	// name themselves (cmd/crncheck uses core.Resolve on both sides).
	Func string
	// Lo, Hi bound the grid, per coordinate (lo ≤ x ≤ hi).
	Lo, Hi []int64
	// MaxConfigs and MaxCount are the per-input exploration budgets — part
	// of the job, since verdicts depend on them. Nonpositive values pick
	// reach.DefaultMaxConfigs and reach.DefaultMaxCount, so an unset
	// config stays byte-identical to a reach.CheckGrid with unset options.
	MaxConfigs int
	MaxCount   int64
	// Shards is the number of grid rectangles to lease out (default
	// DefaultShards, clamped to the grid size). More shards than workers
	// keeps the tail balanced; rectangles are cheap.
	Shards int
	// LeaseTTL bounds how long a silent worker holds a rectangle before it
	// is reassigned (default DefaultLeaseTTL). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Checkpoint, when nonempty, is a file the coordinator rewrites after
	// every completed rectangle and loads on startup, so an interrupted run
	// resumes from the completed set (see checkpoint.go for the format and
	// its cross-version promises).
	Checkpoint string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Metrics is the registry the coordinator's GET /metrics renders
	// (lease-table gauges, lease-churn counters, and the dist.* series of
	// crn_span_duration_seconds). Nil gets a private registry; inject one
	// to aggregate coordinator metrics with a host process's.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records the coordinator's spans: a dist.job
	// root for the whole run, a dist.lease span per grant (ended when the
	// result lands or the lease expires), a dist.merge span for the final
	// fold, plus whatever finished spans workers ship with their results.
	// Inject the host process's tracer (serve does) to see one trace
	// across the request, the coordinator, and the workers.
	Tracer *trace.Tracer
	// TraceContext, when valid, parents the dist.job span — the serving
	// layer passes the span context of the request or async job that
	// started this run, stitching the job into that trace.
	TraceContext trace.SpanContext
}

type rectStatus int

const (
	rectPending rectStatus = iota
	rectLeased
	rectDone
)

// rectState is the lease-table entry of one rectangle.
type rectState struct {
	status   rectStatus
	worker   string      // current lease holder (status == rectLeased)
	deadline time.Time   // lease expiry (status == rectLeased)
	attempts int         // times leased (for /status observability)
	lease    trace.Event // open dist.lease event (status == rectLeased)
	result   reach.GridResult
	raw      json.RawMessage // wire form of result, kept only for a checkpoint file
	errMsg   string          // deterministic enumeration error, if any
}

// Coordinator shards one CheckGrid call across workers and merges their
// rectangle results deterministically. Create with NewCoordinator, then
// either Run (serve + wait), Start/Wait/Shutdown separately, or RunLocal
// to check the rectangles in this process.
type Coordinator struct {
	cfg    CoordinatorConfig
	job    JobSpec
	jobSum string // sha256 of the JobSpec JSON; checkpoint compatibility key
	rects  []Rect
	ttl    time.Duration
	now    func() time.Time // injectable for lease tests
	met    *distMetrics
	seam   *trace.Seam
	// jobEv is the dist.job root event, open from construction until
	// checkFinishedLocked.
	jobEv trace.Event

	mu        sync.Mutex
	states    []rectState
	finished  bool
	merged    reach.GridResult
	mergedErr error
	doneCh    chan struct{}

	closeOnce sync.Once
	closingCh chan struct{} // closed on Shutdown; wakes parked /lease long-polls

	srv *http.Server
	ln  net.Listener
}

// NewCoordinator validates the job, splits the grid, and (if configured)
// loads the checkpoint. It does not listen yet. The grid is validated and
// sized by reach.GridPoints, the rule CheckGrid applies, so a grid a local
// check refuses is refused here with the same error; Shards is clamped to
// the grid's point count.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.CRN == nil {
		return nil, errors.New("dist: coordinator needs a CRN")
	}
	if cfg.Func == "" {
		return nil, errors.New("dist: coordinator needs a function name")
	}
	points, err := reach.GridPoints(cfg.CRN.Dim(), cfg.Lo, cfg.Hi)
	if err != nil {
		return nil, err
	}
	if cfg.MaxConfigs <= 0 {
		cfg.MaxConfigs = reach.DefaultMaxConfigs
	}
	if cfg.MaxCount <= 0 {
		cfg.MaxCount = reach.DefaultMaxCount
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if int64(cfg.Shards) > points {
		cfg.Shards = int(points)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	rects := SplitGrid(cfg.Lo, cfg.Hi, cfg.Shards)
	job := JobSpec{
		Version:    ProtocolVersion,
		CRN:        cfg.CRN.String(),
		Func:       cfg.Func,
		Lo:         cfg.Lo,
		Hi:         cfg.Hi,
		MaxConfigs: cfg.MaxConfigs,
		MaxCount:   cfg.MaxCount,
		Rects:      len(rects),
	}
	jb, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(jb)
	met := newDistMetrics(cfg.Metrics)
	co := &Coordinator{
		cfg:       cfg,
		job:       job,
		jobSum:    hex.EncodeToString(sum[:]),
		rects:     rects,
		ttl:       cfg.LeaseTTL,
		now:       time.Now,
		states:    make([]rectState, len(rects)),
		doneCh:    make(chan struct{}),
		closingCh: make(chan struct{}),
		met:       met,
		seam:      trace.NewSeam(cfg.Tracer, met.reg, cfg.Logf),
	}
	// The job root event opens before the checkpoint load: a checkpoint that
	// already completes the run finishes inside checkFinishedLocked below,
	// which ends this event.
	co.jobEv = co.seam.Start(co.now(), "dist.job", cfg.TraceContext,
		trace.String("func", cfg.Func),
		trace.Int("rects", int64(len(rects))))
	co.mu.Lock()
	if cfg.Checkpoint != "" {
		co.loadCheckpointLocked()
		co.checkFinishedLocked()
	}
	co.syncRectsLocked()
	co.mu.Unlock()
	return co, nil
}

// lease hands out the lowest-indexed pending rectangle, after reclaiming
// expired leases. Rectangles past the first decided (failed or errored) one
// can no longer affect the merged result and are never handed out.
func (co *Coordinator) lease(worker string) LeaseResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	if co.finished {
		return LeaseResponse{Done: true}
	}
	bound := co.firstDecidedLocked()
	for id := 0; id < len(co.states) && id <= bound; id++ {
		st := &co.states[id]
		if st.status != rectPending {
			continue
		}
		now := co.now()
		st.status = rectLeased
		st.worker = worker
		st.deadline = now.Add(co.ttl)
		st.attempts++
		st.lease = co.seam.Start(now, "dist.lease", co.jobEv.Context(),
			trace.Int("rect", int64(id)),
			trace.String("worker", worker),
			trace.Int("attempt", int64(st.attempts)))
		co.met.leasesGranted.Inc()
		co.syncRectsLocked()
		r := co.rects[id]
		st.lease.Logf("lease: rect %d -> %s (attempt %d)", id, worker, st.attempts)
		return LeaseResponse{
			Rect:        &r,
			TTLMillis:   co.ttl.Milliseconds(),
			Traceparent: st.lease.Context().Traceparent(),
		}
	}
	return LeaseResponse{Wait: true}
}

// leaseWait is lease with long-polling: when no rectangle is immediately
// available it parks the request for up to wait (clamped to the lease TTL,
// the protocol's bound on how long a single poll may hang) and answers as
// soon as one could be — the job finishing, the server shutting down, or an
// outstanding lease expiring, which is the only event that returns a
// rectangle to the pending set and is purely time-driven, so the park sleeps
// exactly until the earliest outstanding deadline rather than spinning. A
// Wait answer therefore means "the window closed empty; poll again", and
// replaces the old worker-side 50ms polling loop with one parked request per
// TTL-bounded window. The park also wakes when ctx — the HTTP request's
// context — is canceled, so a worker that hangs up (or is SIGTERMed) frees
// its handler goroutine immediately instead of holding it for the window.
func (co *Coordinator) leaseWait(ctx context.Context, worker string, wait time.Duration) LeaseResponse {
	if wait > co.ttl {
		wait = co.ttl
	}
	resp := co.lease(worker)
	if wait <= 0 || !resp.Wait {
		return resp
	}
	deadline := co.now().Add(wait)
	for {
		// Sleep until the earliest outstanding lease deadline (the soonest a
		// rectangle can free up) or the end of the window, whichever is first.
		wake := deadline
		co.mu.Lock()
		for id := range co.states {
			st := &co.states[id]
			if st.status == rectLeased && st.deadline.Before(wake) {
				wake = st.deadline
			}
		}
		co.mu.Unlock()
		d := max(wake.Sub(co.now()), time.Millisecond)
		t := time.NewTimer(d)
		select {
		case <-co.doneCh:
		case <-co.closingCh:
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
		resp = co.lease(worker)
		if !resp.Wait || !co.now().Before(deadline) {
			return resp
		}
		select {
		case <-co.closingCh:
			return resp // shutting down; don't re-park
		case <-ctx.Done():
			return resp // caller gone; the answer is discarded anyway
		default:
		}
	}
}

// Progress reports how many rectangles have completed out of the total —
// the unit async job progress is surfaced in: internal/serve reads it for
// a dist job's status. Completed rectangles stay completed, so done never
// decreases, across a degradation to RunLocal included.
func (co *Coordinator) Progress() (done, total int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.countLocked()[rectDone], len(co.states)
}

// countLocked tallies the lease table by status, indexed by rectStatus.
func (co *Coordinator) countLocked() (n [3]int) {
	for id := range co.states {
		n[co.states[id].status]++
	}
	return n
}

// renew extends worker's lease on rectID. A false response means the lease
// was lost (expired and possibly reassigned).
func (co *Coordinator) renew(worker string, rectID int) RenewResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	if rectID < 0 || rectID >= len(co.states) {
		return RenewResponse{}
	}
	st := &co.states[rectID]
	if st.status != rectLeased || st.worker != worker {
		co.met.renewFailures.Inc()
		return RenewResponse{}
	}
	st.deadline = co.now().Add(co.ttl)
	return RenewResponse{OK: true}
}

// result decodes and records one rectangle's result. Duplicate reports (a
// lease expired and both the old and the new holder finished) are identical
// by the engine's determinism; the first one recorded wins and the rest are
// acknowledged without effect. A decode failure is a protocol error.
func (co *Coordinator) result(req ResultRequest) (ResultResponse, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if req.RectID < 0 || req.RectID >= len(co.states) {
		return ResultResponse{}, fmt.Errorf("dist: result for unknown rect %d", req.RectID)
	}
	if co.states[req.RectID].status == rectDone {
		return ResultResponse{OK: true}, nil
	}
	if len(req.Result) == 0 && req.Err == "" {
		return ResultResponse{}, fmt.Errorf("dist: result for rect %d carries neither result nor error", req.RectID)
	}
	var res reach.GridResult
	if len(req.Result) > 0 {
		var err error
		res, err = reach.UnmarshalGridResult(req.Result, co.cfg.CRN)
		if err != nil {
			return ResultResponse{}, fmt.Errorf("dist: rect %d: %w", req.RectID, err)
		}
	}
	co.recordLocked(req.RectID, req.Worker, res, req.Result, req.Err, req.Spans)
	return ResultResponse{OK: true}, nil
}

// recordLocked marks rectangle id done — the one record path, shared by
// worker reports (POST /result) and RunLocal — and finishes the run once
// that settles it. raw is res in wire form, kept for the checkpoint file
// only when one is configured; spans are the finished spans the reporting
// worker shipped, which join the coordinator's ring so /debug/traces here
// shows the cross-process trace.
// Caller holds co.mu and has checked the rectangle is not done yet.
func (co *Coordinator) recordLocked(id int, worker string, res reach.GridResult, raw json.RawMessage, errMsg string, spans []trace.SpanData) {
	st := &co.states[id]
	// The lease event, when one is open, ends at the accepted result: its
	// dist.lease/ok series is grant-to-result time per rectangle.
	lease := st.lease
	lease.End(co.now(), "ok")
	st.lease = trace.Event{}
	for i, d := range spans {
		if i >= maxShippedSpans {
			break
		}
		co.cfg.Tracer.Record(d)
	}
	st.status = rectDone
	st.worker = worker
	st.result = res
	st.errMsg = errMsg
	co.syncRectsLocked()
	lease.Logf("result: rect %d from %s: %v", id, worker, res)
	if co.cfg.Checkpoint != "" {
		st.raw = raw
		if err := co.saveCheckpointLocked(); err != nil {
			co.seam.Logf("checkpoint: %v", err)
		}
	}
	co.checkFinishedLocked()
}

// localWorker is the lease-table name of this process under RunLocal.
const localWorker = "local"

// RunLocal checks the rectangles in this process until the run finishes and
// returns the merged result — what Wait returns when workers do the work.
// check is called once per rectangle with ctx; a serving process calls
// RunLocal after Shutdown to finish a handoff whose workers were lost.
//
// Rectangles go through the same lease table and the same record-and-merge
// path as POST /lease and POST /result, so rectangles already completed —
// by workers, or restored from a checkpoint — are kept, not checked again.
// RunLocal assumes no worker can report any more: once every remaining
// rectangle is leased out, it requeues those leases and checks the
// rectangles itself. An error from check while ctx is live is a
// deterministic enumeration error: it is recorded for the rectangle and cuts
// the merge, as a worker-reported error does. Once ctx is canceled RunLocal
// returns check's error, with no partial result.
func (co *Coordinator) RunLocal(ctx context.Context, check func(context.Context, Rect) (reach.GridResult, error)) (reach.GridResult, error) {
	for {
		resp := co.lease(localWorker)
		switch {
		case resp.Done:
			return co.Wait(ctx)
		case resp.Wait: // every remaining rectangle is held by a lost worker
			co.mu.Lock()
			for id := range co.states {
				if co.states[id].status == rectLeased {
					co.requeueLocked(id, "lost")
				}
			}
			co.mu.Unlock()
			continue
		}
		r := *resp.Rect
		res, err := check(ctx, r)
		var errMsg string
		if err != nil {
			if ctx.Err() != nil {
				return reach.GridResult{}, err
			}
			errMsg = err.Error()
		}
		var raw json.RawMessage
		if co.cfg.Checkpoint != "" {
			if raw, err = json.Marshal(res); err != nil {
				return reach.GridResult{}, fmt.Errorf("dist: encoding rect %d result: %w", r.ID, err)
			}
		}
		co.mu.Lock()
		if co.states[r.ID].status != rectDone { // a report racing Shutdown may have landed
			co.recordLocked(r.ID, localWorker, res, raw, errMsg, nil)
		}
		co.mu.Unlock()
	}
}

// requeueLocked returns rectangle id's lease to the pending set, ending its
// lease event with outcome: "expired" (the holder went silent past the TTL)
// or "lost" (RunLocal took the rectangle back).
func (co *Coordinator) requeueLocked(id int, outcome string) {
	st := &co.states[id]
	st.lease.Logf("lease: rect %d %s (held by %s); requeued", id, outcome, st.worker)
	st.status = rectPending
	st.worker = ""
	st.lease.End(co.now(), outcome)
	st.lease = trace.Event{}
	co.syncRectsLocked()
}

// sweepLocked reclaims expired leases so the rectangles can be reassigned.
func (co *Coordinator) sweepLocked() {
	now := co.now()
	for id := range co.states {
		st := &co.states[id]
		if st.status == rectLeased && st.deadline.Before(now) {
			co.requeueLocked(id, "expired")
		}
	}
}

// firstDecidedLocked returns the lowest id of a completed rectangle carrying
// a failure or an enumeration error — the point past which no rectangle can
// influence the merged result — or len(rects) if none.
func (co *Coordinator) firstDecidedLocked() int {
	for id := range co.states {
		st := &co.states[id]
		if st.status == rectDone && (st.errMsg != "" || !st.result.OK()) {
			return id
		}
	}
	return len(co.states)
}

// checkFinishedLocked finishes the run once every rectangle that can still
// influence the result is done: all of them, or — when some rectangle
// reported a failure or error — every rectangle up to and including the
// first such one.
func (co *Coordinator) checkFinishedLocked() {
	if co.finished {
		return
	}
	bound := co.firstDecidedLocked()
	for id := 0; id < len(co.states) && id <= bound; id++ {
		if co.states[id].status != rectDone {
			return
		}
	}
	merge := co.seam.Start(co.now(), "dist.merge", co.jobEv.Context())
	co.merged, co.mergedErr = co.mergeLocked()
	mergeEnd := co.now()
	merge.End(mergeEnd, "ok", trace.Int("checked", int64(co.merged.Checked)))
	co.jobEv.End(mergeEnd, reach.Outcome(co.merged, co.mergedErr))
	co.finished = true
	close(co.doneCh)
}

// mergeLocked folds the rectangle results in canonical grid order with
// reach.GridResult.Fold, the fold CheckGrid applies to its inputs: counts
// sum; the first rectangle with a failure (the smallest failing input in
// grid order) contributes its partial counts and its failure, and
// everything after it is dropped — exactly where a single-process CheckGrid
// stops. Enumeration errors cut the same way, with the error returned
// alongside the partial counts.
//
// This is the only place rectangle results merge, whether workers or
// RunLocal checked them. It is byte-identical to one CheckGrid over the
// whole grid because SplitGrid's rectangles are contiguous segments of
// canonical (lexicographic) grid order, and within a rectangle CheckGrid
// already stops at the first failure in grid order.
func (co *Coordinator) mergeLocked() (reach.GridResult, error) {
	out := reach.GridResult{}
	for id := range co.states {
		st := &co.states[id]
		if st.status != rectDone || !out.Fold(st.result) {
			break
		}
		if st.errMsg != "" {
			return out, errors.New(st.errMsg)
		}
	}
	return out, nil
}

// Handler returns the coordinator's HTTP API.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /job", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, co.job)
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req, maxControlBytes) {
			return
		}
		writeJSON(w, co.leaseWait(r.Context(), req.Worker, time.Duration(req.WaitMillis)*time.Millisecond))
	})
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !readJSON(w, r, &req, maxControlBytes) {
			return
		}
		writeJSON(w, co.renew(req.Worker, req.RectID))
	})
	mux.HandleFunc("POST /result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		// Uncapped: a result carries its rectangle's failure witness,
		// whose size grows with the schedule it replays.
		if !readJSON(w, r, &req, 0) {
			return
		}
		resp, err := co.result(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, co.status())
	})
	mux.Handle("GET /metrics", co.met.reg.Handler())
	if co.cfg.Tracer != nil {
		mux.Handle("GET /debug/traces", co.cfg.Tracer.Handler())
	}
	return mux
}

// status is a point-in-time observability snapshot for GET /status.
func (co *Coordinator) status() map[string]any {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := co.countLocked()
	return map[string]any{
		"rects":    len(co.states),
		"pending":  n[rectPending],
		"leased":   n[rectLeased],
		"done":     n[rectDone],
		"finished": co.finished,
	}
}

// Start listens on addr (host:port; port 0 picks a free one — see Addr) and
// serves the protocol in the background.
func (co *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	co.ln = ln
	co.srv = &http.Server{Handler: co.Handler()}
	go func() { _ = co.srv.Serve(ln) }()
	co.seam.Logf("coordinator: serving %d rects on %s", len(co.rects), ln.Addr())
	return nil
}

// Addr returns the listening address (nil before Start).
func (co *Coordinator) Addr() net.Addr {
	if co.ln == nil {
		return nil
	}
	return co.ln.Addr()
}

// Wait blocks until the merged result is available or ctx is canceled.
func (co *Coordinator) Wait(ctx context.Context) (reach.GridResult, error) {
	select {
	case <-co.doneCh:
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.merged, co.mergedErr
	case <-ctx.Done():
		return reach.GridResult{}, ctx.Err()
	}
}

// Shutdown stops the HTTP server, first waking any parked /lease long-polls
// so graceful shutdown is not held up by the long-poll window.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.closeOnce.Do(func() { close(co.closingCh) })
	if co.srv == nil {
		return nil
	}
	return co.srv.Shutdown(ctx)
}

// linger is how long Close keeps a finished coordinator's listener open:
// one worker poll cycle, so polling workers observe Done and exit cleanly
// instead of losing the coordinator.
const linger = 200 * time.Millisecond

// Close ends a coordinator that Start put on the network. When the run has
// finished and nothing has shut the listener yet, it first lingers so
// polling workers see the Done answer; then it shuts the listener down,
// giving in-flight requests a second. A run that has not finished (canceled,
// or handed to RunLocal) closes at once. A no-op before Start.
func (co *Coordinator) Close() {
	if co.srv == nil {
		return
	}
	select {
	case <-co.closingCh: // already shut down; nobody left to linger for
		return
	default:
	}
	select {
	case <-co.doneCh:
		time.Sleep(linger)
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = co.Shutdown(ctx)
}

// Run serves on addr until the grid is fully checked and returns the merged
// result — the exact GridResult a single-process reach.CheckGrid would
// return. Close lingers before the listener shuts, so polling workers
// observe the Done response and exit cleanly.
func (co *Coordinator) Run(ctx context.Context, addr string) (reach.GridResult, error) {
	if err := co.Start(addr); err != nil {
		return reach.GridResult{}, err
	}
	defer co.Close()
	return co.Wait(ctx)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// maxControlBytes bounds a /lease or /renew body: a worker name and an id.
const maxControlBytes = 64 << 10

// readJSON decodes r's body into v, answering 400 to a malformed body or,
// when limit > 0, to one longer than limit bytes.
func readJSON(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}
