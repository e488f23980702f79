package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/trace"
)

// Graceful-degradation coverage: a dist handoff that cannot start or makes
// no progress falls back to local execution with a degraded status marker,
// and the finished body stays byte-identical to the synchronous path either
// way — degradation is an availability feature, never a correctness one.

// TestJobDegradeAtSubmit: the coordinator address is already taken, so the
// handoff cannot even start — the job must complete locally, marked
// degraded, with the exact crncheck -json bytes.
func TestJobDegradeAtSubmit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, ts := newTestServer(t, Config{
		DistCoordinator: ln.Addr().String(), // occupied: Start must fail
	})
	hi := int64(3)
	js := submitJob(t, ts.URL, hi)
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobDone || !final.Degraded || final.DegradedReason == "" {
		t.Fatalf("degraded-at-submit job: %+v", final)
	}
	if final.Rects != dist.DefaultShards || final.RectsDone != dist.DefaultShards { // hi 3: 16 points
		t.Fatalf("local fallback progress: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("degraded result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
}

// TestJobDegradeMidJob: the coordinator starts but no worker ever joins, so
// no rectangle completes within CoordinatorGrace — the watchdog abandons the
// handoff and the job completes locally, degraded, byte-identical.
func TestJobDegradeMidJob(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DistCoordinator:  freeAddr(t),
		CoordinatorGrace: 500 * time.Millisecond,
	})
	hi := int64(3)
	js := submitJob(t, ts.URL, hi)
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobDone || !final.Degraded || final.Rects != dist.DefaultShards || final.RectsDone != dist.DefaultShards {
		t.Fatalf("degraded-mid-job job: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("degraded result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
}

// TestJobDistWorkerKilledMidRect: during a real dist handoff one of two
// workers dies right after its first lease (without reporting). The lease
// expires, the rectangle is reassigned to the surviving worker, and the job
// completes through the coordinator — NOT degraded — with the exact
// synchronous bytes. This is internal/dist's kill schedule driven through
// serve's /v1/jobs path.
func TestJobDistWorkerKilledMidRect(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		DistCoordinator: addr,
		LeaseTTL:        300 * time.Millisecond, // killed worker's rect reassigns quickly
		// Default CoordinatorGrace (10s) stays ahead of the ~300ms
		// reassignment stall, so the watchdog must not fire.
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	killed := errors.New("worker killed mid-rectangle")
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := &dist.Worker{
			Coordinator: addr,
			Name:        fmt.Sprintf("worker-%d", i),
			Workers:     1,
			Resolve:     core.Resolve,
			Grace:       30 * time.Second,
			Logf:        t.Logf,
		}
		if i == 0 {
			w.LeaseHook = func(dist.Rect) error { return killed }
		}
		go func() { workerErrs <- w.Run(ctx) }()
	}

	hi := int64(3)
	js := submitJob(t, ts.URL, hi)
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobDone || final.Rects != dist.DefaultShards || final.RectsDone != dist.DefaultShards {
		t.Fatalf("dist job under worker kill: %+v", final)
	}
	if final.Degraded {
		t.Fatalf("job degraded despite a surviving worker: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("kill-schedule result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErrs:
			if err != nil && !errors.Is(err, killed) && ctx.Err() == nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker did not finish")
		}
	}
}

// TestJobDegradeKeepsCompletedRects: the only worker completes k
// rectangles, then dies holding its next lease. The watchdog degrades the
// job, which finishes on the same coordinator: progress never drops (so
// never below k), exactly total−k rectangles run locally (one serve.rect
// span each), and the body is the exact crncheck -json bytes.
func TestJobDegradeKeepsCompletedRects(t *testing.T) {
	const shards, k = dist.DefaultShards, 2 // hi 3: 16 points, one rectangle each
	tr := trace.New(trace.Options{Proc: "serve-test"})
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		DistCoordinator:  addr,
		LeaseTTL:         time.Minute, // the dead worker's lease outlives the watchdog
		CoordinatorGrace: time.Second,
		Tracer:           tr,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	killed := errors.New("worker killed after k rectangles")
	var leases atomic.Int32
	w := &dist.Worker{
		Coordinator: addr,
		Name:        "mortal",
		Workers:     1,
		Resolve:     core.Resolve,
		Grace:       30 * time.Second,
		LeaseHook: func(dist.Rect) error {
			if leases.Add(1) > k {
				return killed
			}
			return nil
		},
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()

	hi := int64(3)
	js := submitJob(t, ts.URL, hi)
	var st JobStatus
	peak := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := get(t, ts.URL+"/v1/jobs/"+js.ID)
		if status != http.StatusOK {
			t.Fatalf("job status: %d %s", status, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.RectsDone < peak {
			t.Fatalf("rects_done dropped from %d to %d: %+v", peak, st.RectsDone, st)
		}
		peak = st.RectsDone
		if st.Degraded && st.RectsDone < k {
			t.Fatalf("degraded job lost the worker's rectangles: %+v", st)
		}
		if terminalState(st.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != jobDone || !st.Degraded || st.Rects != shards || st.RectsDone != shards {
		t.Fatalf("degraded job: %+v", st)
	}
	if err := <-workerErr; !errors.Is(err, killed) {
		t.Fatalf("worker: %v", err)
	}
	if n := leases.Load(); n != k+1 {
		t.Fatalf("worker took %d leases, want %d (k completed + the one it died on)", n, k+1)
	}
	local := 0
	for _, d := range tr.Snapshot() {
		if d.Name == "serve.rect" {
			local++
		}
	}
	if local != shards-k {
		t.Fatalf("%d rectangles ran locally, want total-k = %d", local, shards-k)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("degraded result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
}

// TestJobDistConcurrentJobs: in dist mode every job's coordinator binds the
// one configured address, so two distinct jobs submitted together run one
// after the other — workers re-join for the second — instead of the second
// failing to bind and degrading. Neither degrades, and both bodies are the
// exact crncheck -json bytes.
func TestJobDistConcurrentJobs(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		DistCoordinator: addr,
		LeaseTTL:        5 * time.Second,
		MaxJobs:         2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil { // a clean Run return means the job finished: join the next
				w := &dist.Worker{
					Coordinator: addr,
					Name:        fmt.Sprintf("worker-%d", i),
					Workers:     1,
					Resolve:     core.Resolve,
					Grace:       30 * time.Second,
				}
				_ = w.Run(ctx)
			}
		}()
	}
	his := []int64{3, 4}
	ids := make([]string, len(his))
	for i, hi := range his {
		ids[i] = submitJob(t, ts.URL, hi).ID
	}
	for i, hi := range his {
		final := awaitJob(t, ts.URL, ids[i])
		if final.State != jobDone || final.Degraded {
			t.Fatalf("job hi=%d: %+v", hi, final)
		}
		_, result := get(t, ts.URL+"/v1/jobs/"+ids[i]+"/result")
		if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
			t.Fatalf("job hi=%d result differs from crncheck -json:\n%s\nwant:\n%s", hi, result, want)
		}
	}
}
