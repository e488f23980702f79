package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"crncompose/internal/dist"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// Async grid jobs. A job is a whole /v1/check computation too large for a
// synchronous response: it is content-addressed by the same canonical
// request key as the cache (so the job id doubles as the cache key, and
// re-submitting an identical job attaches to the running one instead of
// recomputing), executed off the request path, and its finished body —
// byte-identical to the synchronous /v1/check response — is inserted into
// the response cache so later checks of the same request are plain hits.
//
// Up to Config.MaxJobs jobs execute concurrently — distinct content
// addresses are independent computations, and a server with spare worker
// budget can overlap them — with further submissions queuing in order.
// Every job runs under its own context (derived from the server's):
// DELETE /v1/jobs/{id} cancels it, and the engine unwinds at its next
// rectangle/chunk boundary, leaving the job in the terminal "canceled"
// state with no partial result.
//
// Every job runs through a dist.Coordinator, the one rectangle scheduler and
// grid-order merge: locally its rectangles are leased to this process
// (RunLocal) and the coordinator never listens; in dist mode external
// workers lease them. Progress is the coordinator's count of completed
// rectangles, read when the status is.
//
// Terminal jobs (done, failed, canceled) are garbage-collected from the
// table after Config.JobTTL. A done job's body survives in the response
// cache under the same key, so its result remains reachable: re-submitting
// yields a fresh pre-completed job instantly.

// Job states.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// terminalState reports whether a job state is final.
func terminalState(state string) bool {
	switch state {
	case jobDone, jobFailed, jobCanceled:
		return true
	}
	return false
}

// JobStatus is the status document of GET /v1/jobs/{id} (and the 202 body
// of submissions). Progress is counted in completed grid rectangles.
// Degraded is set when a dist handoff fell back to local execution
// (DegradedReason says why); the result body is byte-identical either way,
// so degradation is an operational signal, not a correctness one.
type JobStatus struct {
	ID             string `json:"id"`
	State          string `json:"state"`
	Rects          int    `json:"rects"`
	RectsDone      int    `json:"rects_done"`
	Error          string `json:"error,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// asyncJob is one grid job. Mutable fields are guarded by the owning
// jobTable's mutex; done closes when the job reaches a terminal state.
type asyncJob struct {
	id    string
	check *checkJob

	// ctx governs the job's computation; cancel is what DELETE calls. Both
	// are immutable after getOrCreate (cancel is safe to call repeatedly).
	ctx    context.Context
	cancel context.CancelFunc

	// parent is the span context of the submitting request (zero when that
	// request was untraced) and submittedAt the admission instant — together
	// they let the runner open a serve.job event that covers queue wait plus
	// execution, in the submitter's trace. ev is that open event; it is set
	// by runJob before execution and read only on the runner goroutine.
	parent      trace.SpanContext
	submittedAt time.Time
	ev          trace.Event

	// co schedules and merges the job's rectangles while it runs; status
	// reads progress from it. At the terminal transition its final count
	// moves to rects/rectsDone and co is dropped, so a finished job does
	// not hold its coordinator for JobTTL. The table lock is taken before
	// the coordinator's, never after.
	co             *dist.Coordinator
	state          string
	rects          int
	rectsDone      int
	body           []byte    // finished /v1/check body (state == jobDone)
	errMsg         string    // state == jobFailed or jobCanceled
	degraded       bool      // dist handoff fell back to local execution
	degradedReason string    // why (degraded only)
	finishedAt     time.Time // when the job reached a terminal state (for GC)

	done chan struct{}
}

// jobTable owns every submitted job and the execution queue.
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]*asyncJob
	queue chan *asyncJob
	now   func() time.Time // injectable for TTL tests
}

func newJobTable() *jobTable {
	return &jobTable{
		jobs:  make(map[string]*asyncJob),
		queue: make(chan *asyncJob, 256),
		now:   time.Now,
	}
}

// getOrCreate returns the job for j's content address, creating and
// enqueueing it if new. A request whose result is already cached gets a
// pre-completed job, so submitting a job for a finished computation is
// instantaneous at any later time. A previously failed or canceled job is
// replaced by a fresh submission — failures (a full queue, a coordinator
// that could not bind, an enumeration error) and cancellations must not
// poison the content address for the server's lifetime.
func (jt *jobTable) getOrCreate(j *checkJob, s *Server, parent trace.SpanContext) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jb, ok := jt.jobs[j.key]; ok && jb.state != jobFailed && jb.state != jobCanceled {
		// Identical re-submissions attach to the existing job; the first
		// submitter's trace keeps it.
		return jb
	}
	jb := &asyncJob{
		id: j.key, check: j, state: jobQueued, done: make(chan struct{}),
		parent: parent, submittedAt: jt.now(),
	}
	base := s.baseCtx
	if base == nil { // bare Server in table-level tests
		base = context.Background()
	}
	jb.ctx, jb.cancel = context.WithCancel(base)
	s.met.submitted()
	if val, ok := s.cache.get(j.key); ok {
		jb.state = jobDone
		jb.body = val.body
		jb.finishedAt = jt.now()
		jb.cancel()
		close(jb.done)
		jt.jobs[j.key] = jb
		s.met.jobTransition("", jobDone)
		return jb
	}
	select {
	case jt.queue <- jb:
		s.met.jobTransition("", jobQueued)
	default:
		jb.state = jobFailed
		jb.errMsg = "job queue full"
		jb.finishedAt = jt.now()
		jb.cancel()
		close(jb.done)
		s.met.jobTransition("", jobFailed)
	}
	jt.jobs[j.key] = jb
	return jb
}

func (jt *jobTable) get(id string) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.jobs[id]
}

// allTerminal reports whether every job in the table is in a terminal
// state — the drain loop's exit condition.
func (jt *jobTable) allTerminal() bool {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for _, jb := range jt.jobs {
		if !terminalState(jb.state) {
			return false
		}
	}
	return true
}

// gc removes terminal jobs whose finishedAt is at least ttl old and
// returns how many were dropped. Done jobs' bodies stay in the response
// cache; only the table entry expires.
func (jt *jobTable) gc(now time.Time, ttl time.Duration) int {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	n := 0
	for id, jb := range jt.jobs {
		if terminalState(jb.state) && !jb.finishedAt.IsZero() && now.Sub(jb.finishedAt) >= ttl {
			delete(jt.jobs, id)
			n++
		}
	}
	return n
}

// statusDoc snapshots the job for clients.
func (jb *asyncJob) statusDoc() JobStatus {
	// jb.id and check are immutable; the rest is read under the table lock
	// by the accessors below.
	done, total := jb.rectsDone, jb.rects
	if jb.co != nil {
		done, total = jb.co.Progress()
	}
	return JobStatus{
		ID:             jb.id,
		State:          jb.state,
		Rects:          total,
		RectsDone:      done,
		Error:          jb.errMsg,
		Degraded:       jb.degraded,
		DegradedReason: jb.degradedReason,
	}
}

// status returns a consistent snapshot under the table lock.
func (jt *jobTable) status(jb *asyncJob) JobStatus {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jb.statusDoc()
}

// gcJobs is the job-table janitor goroutine: it expires terminal jobs
// older than Config.JobTTL until the server shuts down.
func (s *Server) gcJobs() {
	interval := s.cfg.JobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.jobs.gc(s.jobs.now(), s.cfg.JobTTL); n > 0 {
				s.seam.Logf("job gc: expired %d terminal job(s)", n)
			}
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJobs is the server's job dispatcher goroutine: it admits queued jobs
// into runner goroutines under the MaxJobs budget until the server shuts
// down. Each runner is tracked on jobWG so Drain can await them. In dist
// mode every job's coordinator binds the one DistCoordinator address, so
// jobs run one at a time there and MaxJobs applies to local mode only.
func (s *Server) runJobs() {
	n := s.cfg.MaxJobs
	if s.cfg.DistCoordinator != "" {
		n = 1
	}
	sem := make(chan struct{}, n)
	for {
		select {
		case jb := <-s.jobs.queue:
			select {
			case sem <- struct{}{}:
			case <-s.baseCtx.Done():
				return
			}
			s.jobWG.Add(1)
			go func() {
				defer s.jobWG.Done()
				defer func() { <-sem }()
				s.runJob(jb)
			}()
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJob executes one job to a terminal state and publishes its body to the
// response cache. A job canceled before or during execution lands in
// "canceled" with no partial result. A dist-mode job's coordinator closes
// only after the terminal state is published: its linger for polling
// workers does not delay the job, but it does hold the dispatcher slot, so
// the next dist-mode job binds the address only once the listener is gone.
func (s *Server) runJob(jb *asyncJob) {
	// The serve.job event opens at the admission instant, so it covers queue
	// wait plus execution; the admission child makes the wait visible on its
	// own. Both live in the submitting request's trace (jb.parent).
	runStart := time.Now()
	jb.ev = s.seam.Start(jb.submittedAt, "serve.job", jb.parent,
		trace.String("job", jb.id[:min(12, len(jb.id))]))
	s.seam.Start(jb.submittedAt, "serve.job.admission", jb.ev.Context()).End(runStart, "ok")
	var body []byte
	var err error
	if err = jb.ctx.Err(); err == nil {
		s.computed("job")
		body, err = s.execute(jb)
	}
	s.jobs.mu.Lock()
	from := jb.state
	co := jb.co
	if co != nil {
		jb.rectsDone, jb.rects = co.Progress()
		jb.co = nil
	}
	switch {
	case err != nil && jb.ctx.Err() != nil:
		jb.state = jobCanceled
		jb.errMsg = err.Error()
	case err != nil:
		jb.state = jobFailed
		jb.errMsg = err.Error()
	default:
		jb.state = jobDone
		jb.body = body
		s.cache.put(jb.id, cached{status: http.StatusOK, contentType: contentTypeJSON, body: body})
	}
	s.met.jobTransition(from, jb.state)
	jb.finishedAt = s.jobs.now()
	terminal := jb.state
	degraded := jb.degraded
	s.jobs.mu.Unlock()
	jb.ev.End(time.Now(), terminal, trace.Bool("degraded", degraded))
	jb.cancel()
	close(jb.done)
	jb.ev.Logf("job %.12s…: %s", jb.id, terminal)
	if co != nil {
		co.Close()
	}
}

// execute runs the job's grid through a dist.Coordinator and returns the
// finished body, byte-identical to the synchronous CheckGrid body (the dist
// subsystem's pinned invariant). Without Config.DistCoordinator the
// coordinator never listens and this process checks every rectangle
// (RunLocal); with it, external workers do (runDist).
func (s *Server) execute(jb *asyncJob) ([]byte, error) {
	cc := jb.check.cc
	cfg := dist.CoordinatorConfig{
		CRN:        jb.check.c,
		Func:       cc.Func,
		Lo:         cc.Lo,
		Hi:         cc.Hi,
		MaxConfigs: cc.MaxConfigs,
		MaxCount:   cc.MaxCount,
		Shards:     s.cfg.Shards,
		LeaseTTL:   s.cfg.LeaseTTL,
	}
	if s.cfg.DistCoordinator != "" {
		// A listening coordinator logs, scrapes and traces with this server;
		// its dist.job span parents under serve.job, so /debug/traces here
		// shows one trace from the submitting request through the workers'
		// rectangle spans (shipped back with their results). A local one
		// keeps a private registry: concurrent local jobs would overwrite
		// each other's crn_dist_rects gauges.
		cfg.Logf = s.cfg.Logf
		cfg.Metrics = s.cfg.Metrics
		cfg.Tracer = s.cfg.Tracer
		cfg.TraceContext = jb.ev.Context()
	}
	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	s.jobs.mu.Lock()
	s.met.jobTransition(jb.state, jobRunning)
	jb.state = jobRunning
	jb.co = co
	s.jobs.mu.Unlock()
	var res reach.GridResult
	if s.cfg.DistCoordinator != "" {
		res, err = s.runDist(jb, co)
	} else {
		res, err = co.RunLocal(jb.ctx, s.rectChecker(jb))
	}
	if err != nil {
		return nil, err
	}
	return reach.MarshalGridResultIndent(res)
}

// rectChecker returns the job's in-process rectangle check: checkGrid on
// the rectangle, under a serve.rect event in the job's trace. The check runs
// under the job's context, so a DELETE lands within one chunk of work.
func (s *Server) rectChecker(jb *asyncJob) func(context.Context, dist.Rect) (reach.GridResult, error) {
	return func(ctx context.Context, r dist.Rect) (reach.GridResult, error) {
		ev := s.seam.Start(time.Now(), "serve.rect", jb.ev.Context(),
			trace.Int("rect", int64(r.ID)))
		res, err := s.checkGrid(ctx, jb.check, r.Lo, r.Hi, ev.Context())
		ev.End(time.Now(), reach.Outcome(res, err))
		return res, err
	}
}

// runDist starts co on Config.DistCoordinator, where external workers
// (`crncheck -join addr`) compute the rectangles, and waits for the merged
// result under the job's context: a DELETE cancels the wait, and runJob
// then closes the coordinator, letting workers see the job disappear and
// exit.
//
// Two failures degrade instead of failing the job (unless CoordinatorGrace
// is negative): the coordinator cannot start on the address, or no
// rectangle completes for CoordinatorGrace — its workers are dead, wedged,
// or never joined. Degrading shuts the listener and finishes the run in
// this process on the same coordinator, keeping every rectangle workers
// completed; the status carries a degraded marker and the body is the
// bytes a healthy handoff would have produced.
func (s *Server) runDist(jb *asyncJob, co *dist.Coordinator) (reach.GridResult, error) {
	addr, grace := s.cfg.DistCoordinator, s.cfg.CoordinatorGrace
	degrade := func(reason string) (reach.GridResult, error) {
		jb.ev.Logf("job %.12s…: degraded, finishing locally: %s", jb.id, reason)
		s.met.degraded()
		s.jobs.mu.Lock()
		jb.degraded = true
		jb.degradedReason = reason
		s.jobs.mu.Unlock()
		ev := s.seam.Start(time.Now(), "serve.degrade", jb.ev.Context(),
			trace.String("reason", reason))
		res, err := co.RunLocal(jb.ctx, s.rectChecker(jb))
		ev.End(time.Now(), reach.Outcome(res, err))
		return res, err
	}
	if err := co.Start(addr); err != nil {
		if grace < 0 {
			return reach.GridResult{}, fmt.Errorf("starting coordinator on %s: %w", addr, err)
		}
		return degrade(fmt.Sprintf("coordinator could not start on %s: %v", addr, err))
	}
	// Each Wait is bounded by one tick of the stall watchdog.
	const tick = 200 * time.Millisecond
	lastDone, lastChange := 0, time.Now()
	for {
		wctx, cancel := context.WithTimeout(jb.ctx, tick)
		res, err := co.Wait(wctx)
		ticked := wctx.Err() != nil
		cancel()
		if err == nil || !ticked || jb.ctx.Err() != nil {
			return res, err
		}
		done, total := co.Progress()
		if done != lastDone {
			lastDone, lastChange = done, time.Now()
		}
		if grace > 0 && time.Since(lastChange) >= grace {
			co.Close()
			return degrade(fmt.Sprintf("no rectangle completed for %s (%d/%d done); workers presumed lost", grace, done, total))
		}
	}
}

// handleJobSubmit serves POST /v1/jobs: the body is a CheckRequest; the
// response is 202 with the job's status document (Location points at the
// status URL). Identical submissions — concurrent or later — share one job.
// A draining server admits nothing and answers 503.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	var req CheckRequest
	if !readJSON(w, r, &req) {
		return
	}
	sc := trace.FromContext(r.Context())
	j, err := s.resolve(sc, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jb := s.jobs.getOrCreate(j, s, sc)
	w.Header().Set("Location", "/v1/jobs/"+jb.id)
	writeJSON(w, http.StatusAccepted, s.jobs.status(jb))
}

// handleJobStatus serves GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(jb))
}

// handleJobDelete serves DELETE /v1/jobs/{id}. Deleting a queued or
// running job cancels its context — the engine unwinds at its next
// rectangle/chunk boundary and the job transitions to "canceled" — and
// answers 200 with the (possibly not yet terminal) status document.
// Deleting a terminal job removes it from the table and answers 200; a
// done job's result body remains reachable through the response cache.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb := s.jobs.get(id)
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	s.jobs.mu.Lock()
	if terminalState(jb.state) {
		delete(s.jobs.jobs, id)
		st := jb.statusDoc()
		s.jobs.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.jobs.mu.Unlock()
	jb.cancel()
	writeJSON(w, http.StatusOK, s.jobs.status(jb))
}

// handleJobResult serves GET /v1/jobs/{id}/result: the finished body, byte
// -identical to the synchronous /v1/check response (and to crncheck -json).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	st := s.jobs.status(jb)
	switch st.State {
	case jobDone:
		s.jobs.mu.Lock()
		body := jb.body
		s.jobs.mu.Unlock()
		writeCached(w, cached{status: http.StatusOK, contentType: contentTypeJSON, body: body}, cacheHit)
	case jobFailed, jobCanceled:
		writeError(w, http.StatusUnprocessableEntity, errors.New(st.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; poll /v1/jobs/%s", st.State, st.ID))
	}
}
