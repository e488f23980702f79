package dist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/crn"
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
	defer co.Shutdown(context.Background())
	addr := co.Addr().String()

	var wg sync.WaitGroup
	killed := errors.New("worker killed mid-rectangle")
	for i := 0; i < workers; i++ {
		w := &Worker{
			Coordinator: addr,
			Name:        string(rune('A' + i)),
			Workers:     2,
			Resolve:     core.Resolve,
			Poll:        10 * time.Millisecond,
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
	defer co.Shutdown(context.Background())
	w := &Worker{Coordinator: co.Addr().String(), Resolve: core.Resolve, JoinTimeout: 2 * time.Second}
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
	defer co.Shutdown(context.Background())
	w := &Worker{Coordinator: co.Addr().String(), Resolve: core.Resolve, JoinTimeout: 2 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil {
		t.Fatal("unknown function accepted")
	}
}
