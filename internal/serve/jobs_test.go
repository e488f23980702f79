package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/trace"
)

// TestJobSubmitDedupAndProgress: POST /v1/jobs always runs asynchronously,
// identical submissions share one job (the id is the content address), and
// progress is reported in completed rectangles: a local job's grid is one.
func TestJobSubmitDedupAndProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(3)
	req := CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}
	status, _, body := post(t, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	status, _, body2 := post(t, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", status, body2)
	}
	var js2 JobStatus
	if err := json.Unmarshal(body2, &js2); err != nil {
		t.Fatal(err)
	}
	if js2.ID != js.ID {
		t.Fatalf("identical submissions got different jobs: %s vs %s", js2.ID, js.ID)
	}
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobDone || final.Rects != 1 || final.RectsDone != 1 {
		t.Fatalf("final status: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("job result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
	// Submitting once more after completion: a pre-completed job from cache.
	status, _, body3 := post(t, ts.URL+"/v1/jobs", req)
	var js3 JobStatus
	if err := json.Unmarshal(body3, &js3); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted || js3.State != jobDone {
		t.Fatalf("post-completion submit: %d %+v", status, js3)
	}
}

// TestJobRefutedGrid: an async job over a refuted grid completes with the
// failing body (verification failure is a result, not a job error).
func TestJobRefutedGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(2)
	status, _, body := post(t, ts.URL+"/v1/jobs", CheckRequest{CRN: sumCRNText, Func: "min", Hi: &hi})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone {
		t.Fatalf("refuted-grid job: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	want := wantCheckBody(t, sumCRNText, minEval, hi)
	if !bytes.Equal(result, want) {
		t.Fatalf("refuted job result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
}

// TestJobUnknownAndUnfinished covers the status/result error paths.
func TestJobUnknownAndUnfinished(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := get(t, ts.URL+"/v1/jobs/deadbeef"); status != http.StatusNotFound {
		t.Fatalf("unknown job status: %d", status)
	}
	if status, _ := get(t, ts.URL+"/v1/jobs/deadbeef/result"); status != http.StatusNotFound {
		t.Fatalf("unknown job result: %d", status)
	}
	// Hold the runner inside the engine so the job is observably unfinished.
	release := make(chan struct{})
	s.testComputed = func(string) { <-release }
	defer close(release)
	hi := int64(3)
	_, _, body := post(t, ts.URL+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result"); status != http.StatusConflict {
		t.Fatalf("unfinished result: %d %s", status, body)
	}
}

// TestJobDistBackend runs an async job through a real internal/dist
// coordinator started by the server, with an in-process dist.Worker doing
// the computation — PR 4's subsystem reachable from the single user-facing
// API — and requires the finished body to be byte-identical to the
// synchronous path.
func TestJobDistBackend(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		DistCoordinator: addr,
		LeaseTTL:        5 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		w := &dist.Worker{
			Coordinator: addr,
			Name:        "test-worker",
			Workers:     1,
			Resolve:     core.Resolve,
			Grace:       30 * time.Second,
		}
		workerDone <- w.Run(ctx)
	}()

	hi := int64(3)
	status, _, body := post(t, ts.URL+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, ts.URL, js.ID) // hi 3: 16 points, one rectangle each
	if final.State != jobDone || final.Rects != dist.DefaultShards || final.RectsDone != dist.DefaultShards {
		t.Fatalf("dist job: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("dist job result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
	select {
	case err := <-workerDone:
		if err != nil && ctx.Err() == nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not observe job completion")
	}
}

// TestFailedJobRetried: a failed job must not poison its content address —
// the next identical submission gets a fresh job, while done jobs are
// reused. Exercised at the table level so states can be forced: every
// admission slot is taken, so each job's goroutine stays queued and never
// races the forced states.
func TestFailedJobRetried(t *testing.T) {
	s := New(Config{CacheMax: 4})
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		s.jobWG.Wait()
	})
	j, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min"})
	if err != nil {
		t.Fatal(err)
	}
	jb := s.jobs.getOrCreate(j, s, trace.SpanContext{})
	s.jobs.mu.Lock()
	jb.state = jobFailed
	jb.errMsg = "boom"
	s.jobs.mu.Unlock()
	jb2 := s.jobs.getOrCreate(j, s, trace.SpanContext{})
	if jb2 == jb {
		t.Fatal("failed job was reused instead of retried")
	}
	if st := s.jobs.status(jb2); st.State != jobQueued || st.Error != "" {
		t.Fatalf("replacement job: %+v", st)
	}
	s.jobs.mu.Lock()
	jb2.state = jobDone
	s.jobs.mu.Unlock()
	if s.jobs.getOrCreate(j, s, trace.SpanContext{}) != jb2 {
		t.Fatal("done job was not reused")
	}
}

// TestAdmissionBounds: absurd grids and oversized simulations are rejected
// up front instead of wedging the request path (overflow-checked grid size,
// per-request simulation caps).
func TestAdmissionBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hugeHi := int64(3_037_000_500) // (hi+1)^2 overflows int64
	maxHi := int64(math.MaxInt64)  // the axis extent itself overflows int64
	// The extent overflow is refused at resolution, before the grid size
	// picks the synchronous path or a job. Checked first: a /v1/check that
	// resolved would run an unbounded grid on the request path.
	if j, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min", Hi: &maxHi}); err == nil {
		t.Fatalf("hi = MaxInt64 resolved to grid %v..%v", j.cc.Lo, j.cc.Hi)
	}
	for name, tc := range map[string]struct {
		path string
		body any
	}{
		"check_overflow_grid":   {"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hugeHi}},
		"jobs_overflow_grid":    {"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hugeHi}},
		"check_maxint_hi":       {"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &maxHi}},
		"jobs_maxint_hi":        {"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &maxHi}},
		"simulate_trials_bound": {"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{1, 1}, Trials: MaxSimTrials + 1}},
		"simulate_steps_bound":  {"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{1, 1}, MaxSteps: MaxSimMaxSteps + 1}},
		"simulate_silent_bound": {"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{1, 1}, SilentSteps: -1}},
		// A check that is valid but for its size: the padding is an ignored
		// field, so only the body bound can refuse it.
		"oversized_body": {"/v1/check", map[string]any{"crn": minCRNText, "func": "min", "hi": 1, "pad": strings.Repeat("x", MaxRequestBytes)}},
	} {
		t.Run(name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("admitted with %d: %s", status, body)
			}
		})
	}
	// A grid just inside the bound still resolves.
	if _, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min", Hi: &[]int64{65_535}[0]}); err != nil {
		t.Fatalf("in-bound grid rejected: %v", err)
	}
}

// freeAddr reserves a localhost port and releases it for the coordinator.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestJobDistDoneBeforeLinger: a dist-mode job reads done before its
// coordinator's listener closes, so the linger that lets polling workers
// see Done does not delay the job's terminal state. The test parks one idle
// keep-alive connection on the coordinator; the listener's shutdown closes
// it, and at that instant the job must already be done.
func TestJobDistDoneBeforeLinger(t *testing.T) {
	addr := freeAddr(t)
	s, ts := newTestServer(t, Config{
		DistCoordinator: addr,
		LeaseTTL:        5 * time.Second,
	})
	js := submitJob(t, ts.URL, 3)
	var conn net.Conn
	for deadline := time.Now().Add(30 * time.Second); ; {
		var err error
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never listened on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /job HTTP/1.1\r\nHost: %s\r\n\r\n", addr)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		w := &dist.Worker{Coordinator: addr, Name: "w", Workers: 1, Resolve: core.Resolve}
		workerDone <- w.Run(ctx)
	}()
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("coordinator wrote on an idle connection")
	}
	st := s.jobs.status(s.jobs.get(js.ID))
	if st.State != jobDone {
		t.Fatalf("coordinator closed while the job was %q; done must be published first", st.State)
	}
	if st.Rects != dist.DefaultShards || st.RectsDone != dist.DefaultShards { // hi 3: 16 points
		t.Fatalf("dist job progress: %+v", st)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
