package reach

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"crncompose/internal/progress"
	"crncompose/internal/vec"
)

// settleGoroutines polls until the goroutine count returns to at most the
// before snapshot (plus the runtime's own background slack) or the deadline
// passes. The grid workers must leave no goroutine behind on every path,
// including cancellation.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ctxOptions builds the engine options with a cancellation context
// attached, as CheckGridCtx attaches its own.
func ctxOptions(ctx context.Context, opts ...Option) Options {
	o := buildOptions(opts)
	o.ctx = ctx
	return o
}

func TestExploreCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	root := branchyCRN().MustInitialConfig(vec.New(3, 3))
	g, err := explore(newWorkspace(root.CRN()), root, ctxOptions(ctx, WithWorkers(4)))
	if g != nil {
		t.Fatalf("canceled exploration returned a graph (%d configs)", g.NumConfigs())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestExploreCtxCancelMidRun(t *testing.T) {
	// The reporter fires every cancelCheckHeads heads on the calling
	// goroutine; the cancel it triggers is observed at the same poll, so the
	// run always stops mid-exploration, deterministically, with no timing
	// involved.
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var events int
		rep := progress.Func(func(progress.Event) {
			events++
			cancel()
		})
		// ~15k configs: comfortably past the explorer's 1024-head poll
		// stride.
		root := branchyCRN().MustInitialConfig(vec.New(12, 12))
		g, err := explore(newWorkspace(root.CRN()), root,
			ctxOptions(ctx, WithWorkers(workers), WithMaxConfigs(1<<20), WithProgress(rep)))
		if g != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: g=%v err=%v, want nil graph and wrapped context.Canceled", workers, g, err)
		}
		if events == 0 {
			t.Fatalf("workers=%d: no progress events before cancellation", workers)
		}
		cancel()
		settleGoroutines(t, before)
	}
}

func TestCheckGridCtxCancelMidRun(t *testing.T) {
	// Cancel at the first chunk boundary; the grid is large enough to need
	// several chunks at any worker count, so the run can never finish first.
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		rep := progress.Func(func(progress.Event) { cancel() })
		res, err := CheckGridCtx(ctx, branchyCRN(), func(x []int64) int64 { return max(x[0], x[1]) },
			[]int64{0, 0}, []int64{70, 70}, WithWorkers(workers), WithProgress(rep))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
		if !reflect.DeepEqual(res, GridResult{}) {
			t.Fatalf("workers=%d: canceled grid returned partial counts: %+v", workers, res)
		}
		cancel()
		settleGoroutines(t, before)
	}
}

func TestCheckGridCtxUncanceledByteIdentical(t *testing.T) {
	// The ctx-aware path with a live context must produce exactly the
	// engine's usual result, at any worker count.
	f := func(x []int64) int64 { return max(x[0], x[1]) }
	lo, hi := []int64{0, 0}, []int64{5, 5}
	want, err := CheckGrid(branchyCRN(), f, lo, hi, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := CheckGridCtx(context.Background(), branchyCRN(), f, lo, hi, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := MarshalGridResultIndent(want)
		gb, _ := MarshalGridResultIndent(got)
		if string(wb) != string(gb) {
			t.Fatalf("workers=%d: ctx path diverged:\n got %s\nwant %s", workers, gb, wb)
		}
	}
}

func TestCheckInputCtxCancelAndComplete(t *testing.T) {
	root := branchyCRN().MustInitialConfig(vec.New(4, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := newWorkspace(root.CRN())
	if _, err := checkInput(ws, root, 4, ctxOptions(ctx, WithWorkers(2))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	v, err := checkInput(ws, root, 4, ctxOptions(context.Background(), WithWorkers(2)))
	if err != nil || !v.OK {
		t.Fatalf("live-context check: v=%+v err=%v", v, err)
	}
	if w := CheckInput(root, 4, WithWorkers(2)); !reflect.DeepEqual(v, w) {
		t.Fatalf("ctx path verdict %+v != plain verdict %+v", v, w)
	}
}
