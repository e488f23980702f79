package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/trace"
)

// fakeCoordinator is a scriptable coordinator endpoint for worker-side
// failure tests — the real Coordinator cannot be told to misbehave.
type fakeCoordinator struct {
	t        *testing.T
	job      JobSpec
	onLease  func(n int64) LeaseResponse
	jobHits  atomic.Int64
	leases   atomic.Int64
	jobErr   func(n int64) int // non-zero = respond with this status instead
	abortAll bool              // abort every /lease at the transport level
}

func (fc *fakeCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/job", func(w http.ResponseWriter, r *http.Request) {
		n := fc.jobHits.Add(1)
		if fc.jobErr != nil {
			if code := fc.jobErr(n); code != 0 {
				http.Error(w, "scripted failure", code)
				return
			}
		}
		fakeWrite(fc.t, w, fc.job)
	})
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		n := fc.leases.Add(1)
		if fc.abortAll {
			panic(http.ErrAbortHandler) // client sees a transport error
		}
		fakeWrite(fc.t, w, fc.onLease(n))
	})
	mux.HandleFunc("/result", func(w http.ResponseWriter, r *http.Request) {
		fakeWrite(fc.t, w, ResultResponse{OK: true})
	})
	return mux
}

func fakeWrite(t *testing.T, w http.ResponseWriter, v any) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		t.Errorf("encoding response: %v", err)
	}
}

func testJob() JobSpec {
	return JobSpec{
		Version:    ProtocolVersion,
		CRN:        minCRN().String(),
		Func:       "min",
		Lo:         []int64{0, 0},
		Hi:         []int64{3, 3},
		MaxConfigs: 1 << 20,
		MaxCount:   1 << 40,
		Rects:      1,
	}
}

// TestWorkerJoin4xxFailsFast: a 4xx on /job is the listener rejecting the
// request itself (wrong endpoint, future protocol served as an error) — the
// worker must fail on the first attempt, not retry for the full JoinTimeout.
func TestWorkerJoin4xxFailsFast(t *testing.T) {
	fc := &fakeCoordinator{t: t, jobErr: func(int64) int { return http.StatusNotFound }}
	ts := httptest.NewServer(fc.handler())
	defer ts.Close()

	w := &Worker{
		Coordinator: ts.URL,
		Resolve:     core.Resolve,
		Poll:        5 * time.Millisecond,
		JoinTimeout: 30 * time.Second, // must NOT be waited out
		Logf:        t.Logf,
	}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("join against a 404 endpoint succeeded")
	}
	if errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("4xx join misclassified as coordinator loss: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("4xx join retried for %s instead of failing fast", elapsed)
	}
	if hits := fc.jobHits.Load(); hits != 1 {
		t.Fatalf("4xx join attempted %d times, want 1", hits)
	}
}

// TestWorkerJoinRetriesTransient: 5xx answers during startup races are
// transient — the worker keeps retrying inside JoinTimeout and joins once
// the coordinator recovers.
func TestWorkerJoinRetriesTransient(t *testing.T) {
	fc := &fakeCoordinator{
		t:   t,
		job: testJob(),
		jobErr: func(n int64) int {
			if n <= 2 {
				return http.StatusServiceUnavailable
			}
			return 0
		},
		onLease: func(int64) LeaseResponse { return LeaseResponse{Done: true} },
	}
	ts := httptest.NewServer(fc.handler())
	defer ts.Close()

	w := &Worker{
		Coordinator: ts.URL,
		Resolve:     core.Resolve,
		Poll:        time.Millisecond,
		JoinTimeout: 30 * time.Second,
		LongPoll:    -1,
		Logf:        t.Logf,
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker did not ride out transient join failures: %v", err)
	}
	if hits := fc.jobHits.Load(); hits != 3 {
		t.Fatalf("join took %d attempts, want 3", hits)
	}
}

// TestWorkerCoordinatorLost: a coordinator that vanishes after a successful
// join must surface as ErrCoordinatorLost once Grace elapses — not as the
// silent nil that used to make `crncheck -join` exit 0 on a dead job.
func TestWorkerCoordinatorLost(t *testing.T) {
	fc := &fakeCoordinator{t: t, job: testJob(), abortAll: true}
	ts := httptest.NewServer(fc.handler())
	defer ts.Close()

	const grace = 250 * time.Millisecond
	w := &Worker{
		Coordinator: ts.URL,
		Resolve:     core.Resolve,
		Poll:        5 * time.Millisecond,
		LongPoll:    -1,
		Grace:       grace,
		Logf:        t.Logf,
	}
	start := time.Now()
	err := w.Run(context.Background())
	if !errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("err = %v, want ErrCoordinatorLost", err)
	}
	if elapsed := time.Since(start); elapsed < grace {
		t.Fatalf("gave up after %s, before the %s grace window", elapsed, grace)
	}
}

// TestWorkerRetryLogStamped: the worker's coordinator clients log through
// the worker's seam, so when the coordinator answers a /result with a 503
// the retry line reaches Worker.Logf, stamped with the ids of the
// rectangle's trace — the one the coordinator's lease started.
func TestWorkerRetryLogStamped(t *testing.T) {
	ctr := trace.New(trace.Options{Proc: "coordinator"})
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{2, 2},
		Shards: 1,
		Tracer: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	var refused atomic.Bool
	h := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/result" && refused.CompareAndSwap(false, true) {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var mu sync.Mutex
	var lines []string
	w := &Worker{
		Coordinator: srv.URL,
		Name:        "W",
		Workers:     1,
		Resolve:     core.Resolve,
		Poll:        time.Millisecond,
		Tracer:      trace.New(trace.Options{Proc: "worker"}),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if _, err := co.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var jobTrace string
	for _, d := range ctr.Snapshot() {
		if d.Name == "dist.job" {
			jobTrace = d.TraceID
		}
	}
	stamp := regexp.MustCompile(`/result attempt 1 failed .* trace=` + jobTrace + ` span=[0-9a-f]{16}$`)
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.HasPrefix(l, "httpx: POST ") && stamp.MatchString(l) {
			return
		}
	}
	t.Fatalf("no /result retry line ending in trace=%s span=<id> in:\n%s", jobTrace, strings.Join(lines, "\n"))
}
