package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// CheckRequest is the JSON body of POST /v1/check and POST /v1/jobs: verify
// that CRN stably computes the named library function on the grid
// [Lo,Hi]^d. Defaults are crncheck's (lo 0, hi core.DefaultHi, maxconfigs
// core.DefaultMaxConfigs, max count reach.DefaultMaxCount), so a request and
// the CLI invocation it quotes verify under identical budgets — the
// precondition for the byte-identity contract below.
type CheckRequest struct {
	CRN        string `json:"crn"`
	Func       string `json:"func"`
	Lo         int64  `json:"lo"`
	Hi         *int64 `json:"hi,omitempty"`
	MaxConfigs int    `json:"maxconfigs,omitempty"`
}

// canonicalCheck is the content-addressed form of a CheckRequest: the CRN
// re-rendered through parse→String (so formatting differences collapse),
// per-axis bounds, and every budget filled in — exactly the inputs the
// verdict depends on, in the spirit of dist.JobSpec. Its requestKey is the
// cache key and the async job id.
type canonicalCheck struct {
	V          int     `json:"v"`  // key-schema version
	Op         string  `json:"op"` // "check"
	CRN        string  `json:"crn"`
	Func       string  `json:"func"`
	Lo         []int64 `json:"lo"`
	Hi         []int64 `json:"hi"`
	MaxConfigs int     `json:"maxconfigs"`
	MaxCount   int64   `json:"maxcount"`
}

// checkJob is a fully resolved check: the canonical request plus the live
// CRN and evaluator it resolves to, and its grid's point count.
type checkJob struct {
	cc     canonicalCheck
	key    string
	c      *crn.CRN
	f      reach.Func
	points int64
}

// maxGridPoints is the admission bound on a check's total grid size. Far
// beyond anything the engine can enumerate, but small enough that a single
// absurd request cannot wedge the request path or the job queue.
const maxGridPoints = int64(1) << 32

// resolveCheck canonicalizes a CheckRequest: parse the CRN, resolve the
// function in the library, validate arities and bounds, fill defaults.
// Errors are client errors (http.StatusBadRequest unless noted).
func resolveCheck(req CheckRequest) (*checkJob, error) {
	if req.CRN == "" || req.Func == "" {
		return nil, fmt.Errorf("need both crn and func")
	}
	c, f, err := core.ParseCheck(req.CRN, req.Func)
	if err != nil {
		return nil, err
	}
	hi := int64(core.DefaultHi)
	if req.Hi != nil {
		hi = *req.Hi
	}
	if req.Lo < 0 {
		return nil, fmt.Errorf("bad grid bounds lo=%d hi=%d", req.Lo, hi)
	}
	maxConfigs := req.MaxConfigs
	if maxConfigs == 0 {
		maxConfigs = core.DefaultMaxConfigs
	}
	if maxConfigs < 1 || maxConfigs > MaxCheckConfigs {
		return nil, fmt.Errorf("maxconfigs %d is outside [1, %d]", maxConfigs, MaxCheckConfigs)
	}
	d := c.Dim()
	los, his := reach.Cube(d, req.Lo, hi)
	points, err := reach.GridPoints(d, los, his)
	if err != nil {
		return nil, err
	}
	if points > maxGridPoints {
		return nil, fmt.Errorf("grid [%d,%d]^%d exceeds %d points", req.Lo, hi, d, maxGridPoints)
	}
	cc := canonicalCheck{
		V:          1,
		Op:         "check",
		CRN:        c.String(),
		Func:       req.Func,
		Lo:         los,
		Hi:         his,
		MaxConfigs: maxConfigs,
		MaxCount:   reach.DefaultMaxCount, // part of the key because verdicts depend on it
	}
	return &checkJob{
		cc:     cc,
		key:    requestKey(cc),
		c:      c,
		f:      f,
		points: points,
	}, nil
}

// resolve is resolveCheck as the serve.resolve seam event under the
// request's span sc: parse to canonical key, all of a cache hit's work
// before its lookup.
func (s *Server) resolve(sc trace.SpanContext, req CheckRequest) (*checkJob, error) {
	ev := s.seam.Start(time.Now(), "serve.resolve", sc)
	j, err := resolveCheck(req)
	ev.End(time.Now(), trace.Outcome(err))
	return j, err
}

// checkGrid is the server's one grid runner: it checks j's rectangle
// lo ≤ x ≤ hi on the in-process engine under j's budgets and the server's
// worker budget, tracing engine stage events as children of parent. The
// synchronous /v1/check path runs the whole grid through it, and a local
// job each of its rectangles.
func (s *Server) checkGrid(ctx context.Context, j *checkJob, lo, hi []int64, parent trace.SpanContext) (reach.GridResult, error) {
	prog := s.seam.Progress(time.Now, parent, 0)
	res, err := reach.CheckGridCtx(ctx, j.c, j.f, lo, hi,
		reach.WithMaxConfigs(j.cc.MaxConfigs),
		reach.WithMaxCount(j.cc.MaxCount),
		reach.WithWorkers(s.cfg.Workers),
		reach.WithProgress(prog))
	prog.Finish(time.Now(), reach.Outcome(res, err))
	return res, err
}

// handleCheck serves POST /v1/check.
//
// The response body for a completed check is byte-identical to what
// `crncheck -json` prints for the same CRN, function, bounds, and budgets:
// both sides run the same deterministic engine and both encode through
// reach.MarshalGridResultIndent. That identity is what makes the cache safe
// — a replayed body is indistinguishable from a fresh run.
//
// Small grids (at most Config.SyncGridLimit points) are checked
// synchronously on the server's worker budget, deduplicated and cached by
// content address. Larger grids are accepted as asynchronous jobs: the
// response is 202 with the job's status document; poll GET /v1/jobs/{id}
// and fetch the identical body from GET /v1/jobs/{id}/result. A large
// request whose result is already cached is served synchronously from the
// cache.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
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
	lookup := s.seam.Start(time.Now(), "serve.cache.lookup", sc)
	val, ok := s.cache.get(j.key)
	outcome := "miss"
	if ok {
		outcome = "hit"
	}
	lookup.End(time.Now(), outcome)
	if ok {
		writeCached(w, val, cacheHit)
		return
	}
	if j.points > s.cfg.SyncGridLimit {
		jb := s.jobs.getOrCreate(j, s, sc)
		w.Header().Set("Location", "/v1/jobs/"+jb.id)
		writeJSON(w, http.StatusAccepted, s.jobs.status(jb))
		return
	}
	val, source, err := s.cacheDo(r.Context(), "check", j.key, func() (cached, error) {
		s.computed("check")
		// No request context: the flight is shared by parked identical
		// requests, so one client hanging up must not cancel it.
		res, err := s.checkGrid(context.Background(), j, j.cc.Lo, j.cc.Hi, sc)
		if err != nil {
			// A deterministic enumeration error (the CLI exits without
			// JSON): reported, never cached.
			return cached{}, err
		}
		body, err := reach.MarshalGridResultIndent(res)
		if err != nil {
			return cached{}, err
		}
		return cached{status: http.StatusOK, contentType: contentTypeJSON, body: body}, nil
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeCached(w, val, source)
}
