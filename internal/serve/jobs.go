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
// budget can overlap them. Each job is one goroutine that waits for an
// admission slot or its own cancellation, then runs; near-simultaneous
// submissions may be admitted in either order. Every job runs under its
// own context (derived from the server's): DELETE /v1/jobs/{id} cancels it.
// A queued job then leaves the queue at once; a running one unwinds at the
// engine's next cancellation point. Either lands in the terminal "canceled"
// state with no partial result.
//
// A local job is one checkGrid over its whole grid, as a synchronous check
// is. Only a dist-mode job builds a dist.Coordinator, whose external workers
// lease the grid's rectangles; its progress is the coordinator's count of
// completed rectangles, read when the status is.
//
// Every terminal transition (done, failed, canceled) arms a timer that
// removes the job's table entry after Config.JobTTL. A done job's body
// survives in the response cache under the same key, so its result remains
// reachable: re-submitting yields a fresh pre-completed job instantly.

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
// of submissions). Progress is counted in completed grid rectangles. A grid
// is one rectangle unless a dist coordinator splits it: every local job,
// and every job answered from the cache, reports rects 1, with rects_done 1
// once it is done; a dist job reports its coordinator's rectangles.
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
// jobTable's mutex.
type asyncJob struct {
	id    string
	check *checkJob

	// ctx governs the job's computation; cancel is what DELETE calls. Both
	// are immutable after getOrCreate (cancel is safe to call repeatedly).
	ctx    context.Context
	cancel context.CancelFunc

	// parent is the span context of the submitting request (zero when that
	// request was untraced) and submittedAt the submission instant — together
	// they let the runner open a serve.job event that covers queue wait plus
	// execution, in the submitter's trace. ev is that open event; it is set
	// by runJob after admission and read only on the job's goroutine.
	parent      trace.SpanContext
	submittedAt time.Time
	ev          trace.Event

	// co schedules and merges a dist job's rectangles while it runs; status
	// reads progress from it. At the terminal transition its final count
	// moves to rects/rectsDone and co is dropped, so a finished job does
	// not hold its coordinator for JobTTL. The table lock is taken before
	// the coordinator's, never after.
	co             *dist.Coordinator
	state          string
	rects          int
	rectsDone      int
	body           []byte      // finished /v1/check body (state == jobDone)
	errMsg         string      // state == jobFailed or jobCanceled
	degraded       bool        // dist handoff fell back to local execution
	degradedReason string      // why (degraded only)
	expiry         *time.Timer // removes the table entry JobTTL after the terminal transition
}

// maxQueuedJobs bounds the jobs waiting for an admission slot; a submission
// beyond it fails with "job queue full".
const maxQueuedJobs = 256

// jobTable owns every submitted job.
type jobTable struct {
	mu     sync.Mutex
	jobs   map[string]*asyncJob
	queued int // jobs whose goroutine waits for an admission slot
}

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]*asyncJob)}
}

// getOrCreate returns the job for j's content address, creating it and
// starting its goroutine if new. It returns nil while the server drains:
// admission is closed, and reading the flag under the table lock orders
// every jobWG.Add before Drain's Wait. A request whose result is already
// cached gets a pre-completed job, so submitting a job for a finished
// computation is instantaneous at any later time. A previously failed or
// canceled job is replaced by a fresh submission — failures (a full queue,
// a coordinator that could not bind, an enumeration error) and
// cancellations must not poison the content address for the server's
// lifetime.
func (jt *jobTable) getOrCreate(j *checkJob, s *Server, parent trace.SpanContext) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if s.draining.Load() {
		return nil
	}
	if old, ok := jt.jobs[j.key]; ok {
		if old.state != jobFailed && old.state != jobCanceled {
			// Identical re-submissions attach to the existing job; the first
			// submitter's trace keeps it.
			return old
		}
		jt.dropLocked(old)
	}
	jb := &asyncJob{id: j.key, check: j, parent: parent, submittedAt: time.Now()}
	jb.ctx, jb.cancel = context.WithCancel(s.baseCtx)
	jt.jobs[j.key] = jb
	s.met.submitted()
	if body, ok := s.cache.get(j.key); ok {
		jb.body = body
		s.finishLocked(jb, jobDone, "")
		return jb
	}
	if jt.queued >= maxQueuedJobs {
		s.finishLocked(jb, jobFailed, "job queue full")
		return jb
	}
	s.met.jobTransition("", jobQueued)
	jb.state = jobQueued
	jt.queued++
	s.jobWG.Add(1)
	go s.runJob(jb)
	return jb
}

// finishLocked moves jb to a terminal state, releases its context and,
// when Config.JobTTL is positive, arms the timer that expires its table
// entry. It is the one terminal transition; callers hold the table lock.
func (s *Server) finishLocked(jb *asyncJob, state, errMsg string) {
	s.met.jobTransition(jb.state, state)
	jb.state, jb.errMsg = state, errMsg
	jb.cancel()
	if ttl := s.cfg.JobTTL; ttl > 0 {
		jb.expiry = time.AfterFunc(ttl, func() {
			s.jobs.mu.Lock()
			defer s.jobs.mu.Unlock()
			s.jobs.dropLocked(jb)
		})
	}
}

// dropLocked removes jb's table entry, if the entry is still jb, and stops
// its expiry timer, whose closure would otherwise keep a deleted or replaced
// job alive until JobTTL. Done bodies stay in the response cache; only the
// table entry goes.
func (jt *jobTable) dropLocked(jb *asyncJob) {
	if jt.jobs[jb.id] == jb {
		delete(jt.jobs, jb.id)
	}
	if jb.expiry != nil {
		jb.expiry.Stop()
	}
}

func (jt *jobTable) get(id string) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.jobs[id]
}

// statusDoc snapshots the job for clients.
func (jb *asyncJob) statusDoc() JobStatus {
	// jb.id and check are immutable; the rest is read under the table lock
	// by the accessors below.
	done, total := jb.rectsDone, jb.rects
	if jb.co != nil {
		done, total = jb.co.Progress()
	}
	if total == 0 { // no dist coordinator split the grid: it is one rectangle
		total = 1
		if jb.state == jobDone {
			done = 1
		}
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

// runJob is the job's goroutine, counted in jobWG: it waits for an
// admission slot or the job's cancellation, executes the job to a terminal
// state and publishes its body to the response cache. A job canceled before
// or during execution lands in "canceled" with no partial result. A
// dist-mode job's coordinator closes only after the terminal state is
// published: its linger for polling workers does not delay the job, but
// the job holds its slot until then, so the next dist-mode job binds the
// address only once the listener is gone.
func (s *Server) runJob(jb *asyncJob) {
	defer s.jobWG.Done()
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-jb.ctx.Done():
	}
	s.jobs.mu.Lock()
	s.jobs.queued--
	s.jobs.mu.Unlock()
	// The serve.job event opens at the submission instant, so it covers
	// queue wait plus execution; the admission child makes the wait visible
	// on its own. Both live in the submitting request's trace (jb.parent).
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
	co := jb.co
	if co != nil {
		jb.rectsDone, jb.rects = co.Progress()
		jb.co = nil
	}
	switch {
	case err != nil && jb.ctx.Err() != nil:
		s.finishLocked(jb, jobCanceled, err.Error())
	case err != nil:
		s.finishLocked(jb, jobFailed, err.Error())
	default:
		jb.body = body
		s.cache.put(jb.id, body)
		s.finishLocked(jb, jobDone, "")
	}
	terminal := jb.state
	degraded := jb.degraded
	s.jobs.mu.Unlock()
	jb.ev.End(time.Now(), terminal, trace.Bool("degraded", degraded))
	jb.ev.Logf("job %.12s…: %s", jb.id, terminal)
	if co != nil {
		co.Close()
	}
}

// execute runs the job's grid and returns the finished body, byte-identical
// to the synchronous /v1/check body: locally as one checkGrid under the
// job's context, so a DELETE lands within one chunk of work, and in dist
// mode through runDist.
func (s *Server) execute(jb *asyncJob) ([]byte, error) {
	s.jobs.mu.Lock()
	s.met.jobTransition(jb.state, jobRunning)
	jb.state = jobRunning
	s.jobs.mu.Unlock()
	var res reach.GridResult
	var err error
	if s.cfg.DistCoordinator != "" {
		res, err = s.runDist(jb)
	} else {
		cc := jb.check.cc
		res, err = s.checkGrid(jb.ctx, jb.check, cc.Lo, cc.Hi, jb.ev.Context())
	}
	if err != nil {
		return nil, err
	}
	return reach.MarshalGridResultIndent(res)
}

// runDist starts a coordinator for the job on Config.DistCoordinator. It
// splits the grid into dist.DefaultShards rectangles (one per point on a
// smaller grid) for external workers (`crncheck -join addr`), and logs,
// scrapes and traces with this server: its dist.job span parents under
// serve.job. runDist waits for the merged result under the job's context: a
// DELETE cancels the wait, and runJob then closes the coordinator, letting
// workers see the job disappear and exit.
//
// Two failures degrade instead of failing the job: the coordinator cannot
// start on the address, or no worker reaches it for one lease TTL, the
// silence after which it reassigns a worker's rectangle. Degrading shuts
// the listener and finishes the run in this process on the same
// coordinator, keeping every rectangle workers completed and checking each
// other one under a serve.rect event; the status carries a degraded marker
// and the body is the bytes a healthy handoff would have produced.
func (s *Server) runDist(jb *asyncJob) (reach.GridResult, error) {
	cc := jb.check.cc
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		CRN:          jb.check.c,
		Func:         cc.Func,
		Lo:           cc.Lo,
		Hi:           cc.Hi,
		MaxConfigs:   cc.MaxConfigs,
		MaxCount:     cc.MaxCount,
		LeaseTTL:     s.cfg.LeaseTTL,
		Logf:         s.cfg.Logf,
		Metrics:      s.cfg.Metrics,
		Tracer:       s.cfg.Tracer,
		TraceContext: jb.ev.Context(),
	})
	if err != nil {
		return reach.GridResult{}, err
	}
	s.jobs.mu.Lock()
	jb.co = co
	s.jobs.mu.Unlock()
	addr, ttl := s.cfg.DistCoordinator, s.cfg.LeaseTTL
	degrade := func(reason string) (reach.GridResult, error) {
		jb.ev.Logf("job %.12s…: degraded, finishing locally: %s", jb.id, reason)
		s.met.degraded()
		s.jobs.mu.Lock()
		jb.degraded = true
		jb.degradedReason = reason
		s.jobs.mu.Unlock()
		ev := s.seam.Start(time.Now(), "serve.degrade", jb.ev.Context(),
			trace.String("reason", reason))
		res, err := co.RunLocal(jb.ctx, func(ctx context.Context, r dist.Rect) (reach.GridResult, error) {
			rev := s.seam.Start(time.Now(), "serve.rect", jb.ev.Context(),
				trace.Int("rect", int64(r.ID)))
			res, err := s.checkGrid(ctx, jb.check, r.Lo, r.Hi, rev.Context())
			rev.End(time.Now(), reach.Outcome(res, err))
			return res, err
		})
		ev.End(time.Now(), reach.Outcome(res, err))
		return res, err
	}
	if err := co.Start(addr); err != nil {
		return degrade(fmt.Sprintf("coordinator could not start on %s: %v", addr, err))
	}
	// Each Wait is bounded by one tick of the silence watchdog.
	const tick = 200 * time.Millisecond
	for co.Silence() < ttl {
		wctx, cancel := context.WithTimeout(jb.ctx, tick)
		res, err := co.Wait(wctx)
		ticked := wctx.Err() != nil
		cancel()
		if err == nil || !ticked || jb.ctx.Err() != nil {
			return res, err
		}
	}
	co.Close()
	done, total := co.Progress()
	return degrade(fmt.Sprintf("no worker reached the coordinator for %s (%d/%d rects done); workers presumed lost", ttl, done, total))
}

// handleJobSubmit serves POST /v1/jobs: the body is a CheckRequest; the
// response is 202 with the job's status document (Location points at the
// status URL). Identical submissions — concurrent or later — share one job.
// A draining server admits nothing and answers 503.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
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
	s.acceptJob(w, j, sc)
}

// acceptJob answers a job submission, from POST /v1/jobs or a large
// /v1/check: 202 with the status document of the job for j's content
// address, or 503 while the server drains.
func (s *Server) acceptJob(w http.ResponseWriter, j *checkJob, sc trace.SpanContext) {
	jb := s.jobs.getOrCreate(j, s, sc)
	if jb == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
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
// running job cancels its context — a queued job leaves the queue at once,
// a running one unwinds at the engine's next cancellation point, and the
// job transitions to "canceled" — and answers 200 with the (possibly not
// yet terminal) status document.
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
		s.jobs.dropLocked(jb)
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
		writeCached(w, body, cacheHit)
	case jobFailed, jobCanceled:
		writeError(w, http.StatusUnprocessableEntity, errors.New(st.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; poll /v1/jobs/%s", st.State, st.ID))
	}
}
