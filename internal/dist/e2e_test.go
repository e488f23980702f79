package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/httpx"
	"crncompose/internal/reach"
)

// runDistributed runs a full coordinator + workers job over real localhost
// HTTP and returns the merged result. killFirstLease, when set, makes the
// first worker die (without reporting) right after its first lease is
// granted — the crash-mid-rectangle schedule the lease table must absorb.
func runDistributed(t *testing.T, c *crn.CRN, lo, hi []int64, shards, workers int, killFirstLease bool) (reach.GridResult, error) {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: c, Func: "min",
		Lo: lo, Hi: hi,
		Shards:   shards,
		LeaseTTL: 300 * time.Millisecond, // short so the killed worker's rect reassigns quickly
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := co.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer shutdownChaos(co, tr)
	addr := co.Addr().String()

	var wg sync.WaitGroup
	killed := errors.New("worker killed mid-rectangle")
	for i := 0; i < workers; i++ {
		w := &Worker{
			Coordinator: addr,
			Name:        string(rune('A' + i)),
			Workers:     2,
			Resolve:     core.Resolve,
			Client:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
			Logf:        t.Logf,
		}
		if i == 0 && killFirstLease {
			w.LeaseHook = func(Rect) error { return killed }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.Run(ctx)
			if err != nil && !errors.Is(err, killed) && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	merged, mergedErr := co.Wait(ctx)
	cancel() // release any still-polling workers
	wg.Wait()
	return merged, mergedErr
}

// TestE2EDistributedByteIdenticalToLocal is the acceptance test of the
// subsystem: coordinator + 2 workers over localhost HTTP, one worker killed
// mid-rectangle, and the merged GridResult — witness schedule included —
// must be byte-identical to a single-process reach.CheckGrid on the same
// grid.
func TestE2EDistributedByteIdenticalToLocal(t *testing.T) {
	t.Run("all-ok", func(t *testing.T) {
		merged, err := runDistributed(t, minCRN(), []int64{0, 0}, []int64{3, 3}, 5, 2, true)
		assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{3, 3})
		if !merged.OK() || merged.Checked != 16 {
			t.Fatalf("merged = %v", merged)
		}
	})
	t.Run("refuted-with-witness", func(t *testing.T) {
		merged, err := runDistributed(t, sumCRN(), []int64{0, 0}, []int64{3, 3}, 5, 2, true)
		assertSameAsLocal(t, merged, err, sumCRN(), minFunc, []int64{0, 0}, []int64{3, 3})
		if merged.OK() || merged.Failure.Verdict.Witness == nil {
			t.Fatalf("merged = %v", merged)
		}
		// The witness shipped over the wire must replay on the coordinator's
		// CRN.
		if _, err := merged.Failure.Verdict.Witness.Replay(); err != nil {
			t.Fatalf("merged witness does not replay: %v", err)
		}
	})
}

// TestE2ESingleWorker: a lone worker must finish a job whose rectangle count
// exceeds the worker count.
func TestE2ESingleWorker(t *testing.T) {
	merged, err := runDistributed(t, minCRN(), []int64{0, 0}, []int64{2, 2}, 7, 1, false)
	assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{2, 2})
}

// TestWorkerRejectsWrongProtocol: a worker must refuse a coordinator
// speaking a different protocol version.
func TestWorkerRejectsWrongProtocol(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	co.job.Version = ProtocolVersion + 1
	if err := co.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer shutdownChaos(co, tr)
	w := &Worker{Coordinator: co.Addr().String(), Resolve: core.Resolve, Grace: 2 * time.Second,
		Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// TestWorkerUnknownFunction: a worker that cannot resolve the job's function
// must fail its run rather than report garbage.
func TestWorkerUnknownFunction(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "nosuchfn",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer shutdownChaos(co, tr)
	w := &Worker{Coordinator: co.Addr().String(), Resolve: core.Resolve, Grace: 2 * time.Second,
		Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil {
		t.Fatal("unknown function accepted")
	}
}

// TestLeftoverWorkerCannotJoinNextJob: one address serves job A, then job
// B. Worker W1 is held in its lease of A's rectangle 5 past the lease TTL,
// so W2 finishes A, and W1 is let go only once B listens on the address.
// W1's late result and its next lease name job A: B answers both 409, so
// W1's Run ends with an error, and B, finished by a fresh worker, merges to
// the exact local bytes of its own grid.
func TestLeftoverWorkerCannotJoinNextJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	newCo := func(hi int64) *Coordinator {
		co, err := NewCoordinator(CoordinatorConfig{
			CRN: minCRN(), Func: "min",
			Lo: []int64{0, 0}, Hi: []int64{hi, hi},
			LeaseTTL: 300 * time.Millisecond,
			Logf:     t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	worker := func(name, addr string) *Worker {
		return &Worker{Coordinator: addr, Name: name, Workers: 1, Resolve: core.Resolve, Grace: 5 * time.Second,
			Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, Logf: t.Logf}
	}

	coA := newCo(3) // 16 one-point rectangles
	if err := coA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := coA.Addr().String()
	held, release := make(chan struct{}), make(chan struct{})
	w1 := worker("W1", addr)
	w1.LeaseHook = func(r Rect) error {
		if r.ID == 5 {
			close(held)
			<-release
		}
		return nil
	}
	w1Err := make(chan error, 1)
	go func() { w1Err <- w1.Run(ctx) }()
	<-held
	if err := worker("W2", addr).Run(ctx); err != nil {
		t.Fatalf("W2 on job A: %v", err)
	}
	if _, err := coA.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	coA.Close()

	coB := newCo(4)
	for attempt := 0; ; attempt++ {
		err := coB.Start(addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("starting job B on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer shutdownChaos(coB, tr)
	close(release)
	if err := <-w1Err; err == nil {
		t.Fatal("a worker of job A ran on job B's coordinator to a clean finish")
	}
	if err := worker("W3", addr).Run(ctx); err != nil {
		t.Fatalf("W3 on job B: %v", err)
	}
	merged, err := coB.Wait(ctx)
	assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{4, 4})
}

// TestRenewConflictEndsWorker: W1 leases job A's one rectangle and is held
// until job B listens on the same address. The rectangle outlasts several
// heartbeats, so W1 renews its lease at B, which answers 409: W1 abandons
// the rectangle at once, posts no result, and its Run returns the renew's
// 409.
func TestRenewConflictEndsWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, err := core.Lookup("min")
	if err != nil {
		t.Fatal(err)
	}
	// The Lemma 6.2 construction for min: every input of [0,4]^2 explores
	// its whole budget of 65536 configurations, about half a second of
	// engine time for the rectangle on one worker, against heartbeats every
	// 100ms.
	sys, err := core.Synthesize(ctx, f, 0, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	coA, err := NewCoordinator(CoordinatorConfig{
		CRN: sys.Net, Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{4, 4},
		MaxConfigs: 1 << 16,
		Shards:     1,
		LeaseTTL:   300 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := coA.Addr().String()

	var mu sync.Mutex
	var w1Log []string
	tr := http.DefaultTransport.(*http.Transport).Clone()
	held, release := make(chan struct{}), make(chan struct{})
	w1 := &Worker{
		Coordinator: addr, Name: "W1", Workers: 1, Resolve: core.Resolve, Grace: 5 * time.Second,
		Client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			w1Log = append(w1Log, line)
			mu.Unlock()
			t.Log(line)
		},
		LeaseHook: func(Rect) error {
			close(held)
			<-release
			return nil
		},
	}
	w1Err := make(chan error, 1)
	go func() { w1Err <- w1.Run(ctx) }()
	<-held
	coA.Close()

	coB, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; ; attempt++ {
		err := coB.Start(addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("starting job B on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer shutdownChaos(coB, tr)
	close(release)
	err = <-w1Err
	if httpx.StatusCode(err) != http.StatusConflict || !strings.Contains(err.Error(), "renewing rect") {
		t.Fatalf("W1's Run = %v, want the renew's 409", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range w1Log {
		if strings.Contains(line, "dropping result") {
			t.Fatalf("W1 posted its rectangle's result: %q", line)
		}
	}
}
