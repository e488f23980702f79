package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// blockJobs installs a testComputed hook that parks every job runner until
// release is closed, reporting each start on started.
func blockJobs(s *Server) (started chan string, release chan struct{}) {
	started = make(chan string, 16)
	release = make(chan struct{})
	s.testComputed = func(op string) {
		started <- op
		<-release
	}
	return started, release
}

func awaitStart(t *testing.T, started chan string) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job runner never started")
	}
}

func submitJob(t *testing.T, base string, hi int64) JobStatus {
	t.Helper()
	status, _, body := post(t, base+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	return js
}

func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, buf[:n]
}

// TestJobDelete: DELETE on a running job cancels its context — the engine
// unwinds at its next chunk boundary and the job lands in "canceled" with
// no partial result — and DELETE on the now-terminal job removes it from
// the table.
func TestJobDelete(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started, release := blockJobs(s)
	js := submitJob(t, ts.URL, 3)
	awaitStart(t, started)

	// Cancel while the runner is held before the engine: the runner's next
	// CheckGridCtx observes the canceled context immediately.
	if status, body := del(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusOK {
		t.Fatalf("delete running: %d %s", status, body)
	}
	close(release)
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobCanceled {
		t.Fatalf("deleted job state = %q, want %q", final.State, jobCanceled)
	}
	if status, body := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result"); status != http.StatusUnprocessableEntity {
		t.Fatalf("canceled job result: %d %s", status, body)
	}

	// Deleting the terminal job drops the table entry.
	if status, _ := del(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusOK {
		t.Fatalf("delete terminal: %d", status)
	}
	if status, _ := get(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusNotFound {
		t.Fatalf("status after table delete: %d", status)
	}
	if status, _ := del(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusNotFound {
		t.Fatalf("delete unknown: %d", status)
	}

	// The canceled address is not poisoned: a fresh submission runs anew.
	js2 := submitJob(t, ts.URL, 3)
	if final := awaitJob(t, ts.URL, js2.ID); final.State != jobDone {
		t.Fatalf("resubmitted job: %+v", final)
	}
}

// TestJobsConcurrent: under -max-jobs 2 two distinct jobs run at the same
// time while a third queues behind the admission budget.
func TestJobsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 2})
	started, release := blockJobs(s)
	submitJob(t, ts.URL, 3)
	js2 := submitJob(t, ts.URL, 4)
	awaitStart(t, started)
	awaitStart(t, started) // both runners in flight concurrently

	js3 := submitJob(t, ts.URL, 5)
	select {
	case op := <-started:
		t.Fatalf("third job (%s) started past the MaxJobs budget: %q", js3.ID, op)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	for _, id := range []string{js2.ID, js3.ID} {
		if final := awaitJob(t, ts.URL, id); final.State != jobDone {
			t.Fatalf("job %s: %+v", id, final)
		}
	}
}

// TestDrain: draining closes admission (readyz 503, submissions 503); a
// job still running at the drain deadline is canceled and Drain returns
// nil — the SIGTERM-to-exit-0 path.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before drain: %d", status)
	}
	started, release := blockJobs(s)
	js := submitJob(t, ts.URL, 3)
	awaitStart(t, started)

	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		drained <- s.Drain(dctx)
	}()

	// Admission must close as soon as draining starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, _ := get(t, ts.URL+"/readyz"); status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hi := int64(9)
	if status, _, _ := post(t, ts.URL+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}); status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %d", status)
	}

	// Let the drain deadline pass (the job's context gets canceled), then
	// release the runner: it observes the cancellation and unwinds.
	time.Sleep(300 * time.Millisecond)
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return")
	}
	if final := s.jobs.status(s.jobs.get(js.ID)); final.State != jobCanceled {
		t.Fatalf("job after drain deadline: %+v", final)
	}
}

// TestDrainAwaitsJobs: with no deadline pressure, drain waits for the
// running job to finish normally — nothing is canceled.
func TestDrainAwaitsJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started, release := blockJobs(s)
	js := submitJob(t, ts.URL, 3)
	awaitStart(t, started)

	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(dctx)
	}()
	// Give drain a moment to begin awaiting, then let the job finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if final := s.jobs.status(s.jobs.get(js.ID)); final.State != jobDone {
		t.Fatalf("job after graceful drain: %+v", final)
	}
}

// TestJobTTLGC: terminal jobs expire from the table after JobTTL — their
// result bodies stay reachable through the response cache — while
// non-terminal jobs are immune.
func TestJobTTLGC(t *testing.T) {
	const ttl = 2 * time.Second
	s, ts := newTestServer(t, Config{JobTTL: ttl})
	js := submitJob(t, ts.URL, 3)
	if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone {
		t.Fatalf("job: %+v", final)
	}

	// A second job held mid-run: running jobs must survive any expiry.
	started, release := blockJobs(s)
	defer close(release)
	js2 := submitJob(t, ts.URL, 4)
	awaitStart(t, started)

	if n := 2 - tableLen(s); n != 0 {
		t.Fatalf("fresh jobs swept: %d", n)
	}
	for deadline := time.Now().Add(ttl + 10*time.Second); s.jobs.get(js.ID) != nil && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := 2 - tableLen(s); n != 1 {
		t.Fatalf("expired sweep removed %d jobs, want 1 (the done one)", n)
	}
	if s.jobs.get(js.ID) != nil {
		t.Fatal("done job still in table after TTL sweep")
	}
	if s.jobs.get(js2.ID) == nil {
		t.Fatal("running job swept")
	}

	// The expired job's result is still served: re-submission attaches to
	// the cached body as a pre-completed job.
	status, _, body := post(t, ts.URL+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: ptrInt64(3)})
	var js3 JobStatus
	if err := json.Unmarshal(body, &js3); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted || js3.State != jobDone || js3.ID != js.ID {
		t.Fatalf("post-expiry submit: %d %+v", status, js3)
	}
}

func tableLen(s *Server) int {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return len(s.jobs.jobs)
}

// awaitState waits up to d for job id to read state want.
func awaitState(t *testing.T, s *Server, id, want string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		st := s.jobs.status(s.jobs.get(id))
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %.12s… reads %q after %s, want %q", id, st.State, d, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeleteQueuedJob: DELETE of a job waiting behind the admission budget
// cancels it at once, without waiting for a slot to free.
func TestDeleteQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1})
	started, release := blockJobs(s)
	defer close(release)
	submitJob(t, ts.URL, 3)
	awaitStart(t, started)
	js := submitJob(t, ts.URL, 4)
	if js.State != jobQueued {
		t.Fatalf("second job under MaxJobs 1: %+v", js)
	}
	if status, body := del(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusOK {
		t.Fatalf("delete queued: %d %s", status, body)
	}
	awaitState(t, s, js.ID, jobCanceled, time.Second)
}

// TestQueuedJobCanceledAtStop: a job still waiting for admission when the
// server stops — at Drain's deadline or at Shutdown — ends canceled, as
// does the running job ahead of it, instead of staying queued for good.
func TestQueuedJobCanceledAtStop(t *testing.T) {
	for name, stop := range map[string]func(*Server){
		"drain_deadline": func(s *Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_ = s.Drain(ctx)
		},
		"shutdown": func(s *Server) { _ = s.Shutdown(context.Background()) },
	} {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxJobs: 1})
			started, release := blockJobs(s)
			running := submitJob(t, ts.URL, 3)
			awaitStart(t, started)
			queued := submitJob(t, ts.URL, 4)
			stopped := make(chan struct{})
			go func() { stop(s); close(stopped) }()
			awaitState(t, s, queued.ID, jobCanceled, 5*time.Second)
			close(release)
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("stop did not return")
			}
			awaitState(t, s, running.ID, jobCanceled, 10*time.Second)
		})
	}
}

// TestDrainRejectsLargeCheck: during a drain a /v1/check too large for the
// synchronous path answers 503, as POST /v1/jobs does, and creates no job.
func TestDrainRejectsLargeCheck(t *testing.T) {
	s, ts := newTestServer(t, Config{SyncGridLimit: 4})
	started, release := blockJobs(s)
	submitJob(t, ts.URL, 2)
	awaitStart(t, started)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for deadline := time.Now().Add(5 * time.Second); !s.draining.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}

	req := CheckRequest{CRN: minCRNText, Func: "min", Hi: ptrInt64(3)} // 16 points
	if status, _, body := post(t, ts.URL+"/v1/check", req); status != http.StatusServiceUnavailable {
		t.Fatalf("large check during drain: %d %s", status, body)
	}
	j, err := resolveCheck(req)
	if err != nil {
		t.Fatal(err)
	}
	if s.jobs.get(j.key) != nil {
		t.Fatal("large check during drain created a job")
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return")
	}
}

func ptrInt64(v int64) *int64 { return &v }
