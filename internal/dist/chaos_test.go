package dist

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/faultnet"
	"crncompose/internal/reach"
)

// Chaos suite: coordinator + 2 workers over real localhost HTTP with
// deterministic seeded fault injection on every worker→coordinator request
// (refused connections, timeouts, injected 5xx, slow responses, responses
// dropped after the coordinator committed). For every seeded schedule the
// merged GridResult must be byte-identical to the fault-free single-process
// run — the dist determinism contract holding under the failure modes it
// was designed for, not just under clean networks.
//
// Run the whole suite with: go test -race -run Chaos ./internal/dist
// (-short keeps a fixed 2-seed subset for PR gating; the full matrix runs
// on main).

// chaosSchedule builds the fault mix for one seed. MaxFaults caps total
// injections so the workers' bounded retry budgets always outlast the
// schedule — the suite asserts identity, never liveness races.
func chaosSchedule(seed uint64, shape string) faultnet.Schedule {
	s := faultnet.Schedule{
		Seed:      seed,
		Latency:   2 * time.Millisecond,
		MaxFaults: 150,
	}
	switch shape {
	case "mixed":
		s.PRefuse, s.PTimeout, s.PServerError, s.PSlow, s.PDrop = 0.08, 0.08, 0.08, 0.08, 0.08
	case "drops":
		// The nasty case: the coordinator commits, the worker never hears —
		// every retried POST exercises lease/result idempotence.
		s.PDrop = 0.3
	case "refuse-timeout":
		s.PRefuse, s.PTimeout = 0.15, 0.15
	default:
		panic("unknown chaos shape " + shape)
	}
	return s
}

// runChaos is runDistributed with each worker's HTTP client wrapped in a
// seeded faultnet.Transport (per-worker seeds derived from the case seed).
// It returns the merged result and the total number of injected faults.
func runChaos(t *testing.T, c *crn.CRN, lo, hi []int64, shape string, seed uint64) (reach.GridResult, error, int64) {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: c, Func: "min",
		Lo: lo, Hi: hi,
		Shards:   6,
		LeaseTTL: 400 * time.Millisecond,
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

	const workers = 2
	transports := make([]*faultnet.Transport, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		tr := faultnet.NewTransport(nil, chaosSchedule(seed+uint64(i)*1000, shape))
		transports[i] = tr
		w := &Worker{
			Coordinator: addr,
			Name:        fmt.Sprintf("chaos-%d", i),
			Workers:     2,
			Resolve:     core.Resolve,
			Grace:       30 * time.Second, // ride out every injected outage
			Client:      &http.Client{Transport: tr, Timeout: 10 * time.Second},
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	merged, mergedErr := co.Wait(ctx)
	cancel() // release any still-polling workers
	wg.Wait()
	var injected int64
	for _, tr := range transports {
		injected += tr.Injected()
	}
	return merged, mergedErr, injected
}

// settleChaosGoroutines polls until the goroutine count returns to the
// pre-test baseline — the leak check required of every chaos schedule.
func settleChaosGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosByteIdentity is the acceptance matrix: every (shape, seed) cell
// must merge to the exact bytes of the fault-free local run — for a grid
// that verifies and for one that refutes with a witness schedule — and leak
// no goroutines. -short pins a fixed 2-seed subset for PR gating.
func TestChaosByteIdentity(t *testing.T) {
	seeds := []uint64{11, 12, 13}
	if testing.Short() {
		seeds = []uint64{11, 12}
	}
	shapes := []string{"mixed", "drops", "refuse-timeout"}
	if testing.Short() {
		shapes = []string{"mixed", "drops"}
	}
	lo, hi := []int64{0, 0}, []int64{3, 3}
	for _, shape := range shapes {
		for _, seed := range seeds {
			// Alternate verified/refuted grids across seeds so both merge
			// paths (count-summing and stop-at-first-failure) run under
			// every shape.
			c, f := minCRN(), minFunc
			kind := "verified"
			if seed%2 == 0 {
				c, kind = sumCRN(), "refuted"
			}
			t.Run(fmt.Sprintf("%s/seed%d/%s", shape, seed, kind), func(t *testing.T) {
				before := runtime.NumGoroutine()
				merged, err, injected := runChaos(t, c, lo, hi, shape, seed)
				assertSameAsLocal(t, merged, err, c, f, lo, hi)
				if kind == "refuted" {
					if merged.OK() || merged.Failure.Verdict.Witness == nil {
						t.Fatalf("refuted merge lost its witness: %v", merged)
					}
				}
				if injected == 0 {
					t.Fatalf("schedule %s/seed %d injected nothing; the cell proves nothing", shape, seed)
				}
				t.Logf("injected %d faults", injected)
				settleChaosGoroutines(t, before)
			})
		}
	}
}

// TestChaosCoordinatorRestart: the coordinator is killed mid-job — after at
// least two rectangles completed and checkpointed — and restarted on the
// same address from the checkpoint, all while worker requests ride a seeded
// fault schedule. The workers' grace window carries them across the outage,
// the restarted coordinator resumes the completed set instead of
// recomputing it, and the final merge is byte-identical to the fault-free
// local run.
func TestChaosCoordinatorRestart(t *testing.T) {
	before := runtime.NumGoroutine()
	ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
	cfg := CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{4, 4},
		Shards:     8,
		LeaseTTL:   400 * time.Millisecond,
		Checkpoint: ckpt,
		Logf:       t.Logf,
	}
	co1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := co1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := co1.Addr().String()

	const workers = 2
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		sched := faultnet.Schedule{
			Seed: 21 + uint64(i)*1000, PRefuse: 0.1, PDrop: 0.1,
			Latency: 2 * time.Millisecond, MaxFaults: 100,
		}
		w := &Worker{
			Coordinator: addr,
			Name:        fmt.Sprintf("restart-%d", i),
			Workers:     2,
			Resolve:     core.Resolve,
			Grace:       30 * time.Second, // must span the restart outage
			Client:      &http.Client{Transport: faultnet.NewTransport(nil, sched), Timeout: 10 * time.Second},
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}

	// Let the job make real progress, then kill the coordinator.
	for {
		if done, _ := co1.Progress(); done >= 2 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("no progress before restart deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = co1.Shutdown(sctx)
	scancel()

	// Restart from the checkpoint on the SAME address (retrying briefly in
	// case the kernel has not released the port yet) while the workers'
	// lease retries hammer it.
	co2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; ; attempt++ {
		if err = co2.Start(addr); err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("restarting coordinator on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if resumed, _ := co2.Progress(); resumed < 2 {
		t.Fatalf("restarted coordinator resumed %d rects from the checkpoint, want >= 2", resumed)
	}

	merged, mergedErr := co2.Wait(ctx)
	cancel()
	wg.Wait()
	_ = co2.Shutdown(context.Background()) // before the leak check: its accept loop counts
	assertSameAsLocal(t, merged, mergedErr, minCRN(), minFunc, []int64{0, 0}, []int64{4, 4})
	if !merged.OK() || merged.Checked != 25 {
		t.Fatalf("merged = %v", merged)
	}
	settleChaosGoroutines(t, before)
}

// TestChaosDropOnlyResultPath pins the single nastiest interaction in
// isolation: a worker whose /result POST is dropped after the coordinator
// committed must converge through the retried (duplicate) report, not hang
// or double-count. errors.Is(err, faultnet.ErrDropped) inside httpx is what
// the worker's retry loop sees.
func TestChaosDropOnlyResultPath(t *testing.T) {
	before := runtime.NumGoroutine()
	merged, err, injected := runChaos(t, minCRN(), []int64{0, 0}, []int64{2, 2}, "drops", 5)
	assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{2, 2})
	if merged.Checked != 9 {
		t.Fatalf("double-counted under duplicate reports: %v", merged)
	}
	if injected == 0 {
		t.Skip("seed 5 injected nothing on this run shape")
	}
	settleChaosGoroutines(t, before)
}
