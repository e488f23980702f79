package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"crncompose/internal/benchcrn"
	"crncompose/internal/crn"
	"crncompose/internal/progress"
	"crncompose/internal/vec"
)

// loopedStart returns a configuration that never goes terminal (the ring
// keeps cycling), so a run only stops at MaxSteps — or at a cancellation.
func loopedStart(t *testing.T) crn.Config {
	t.Helper()
	c := benchcrn.Ring(64)
	start, err := c.InitialConfig(vec.New(50))
	if err != nil {
		t.Fatal(err)
	}
	return start
}

func TestSimCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := loopedStart(t)
	if _, err := GillespieCtx(ctx, start); !errors.Is(err, context.Canceled) {
		t.Fatalf("GillespieCtx err = %v, want wrapped context.Canceled", err)
	}
	if _, err := FairRandomCtx(ctx, start); !errors.Is(err, context.Canceled) {
		t.Fatalf("FairRandomCtx err = %v, want wrapped context.Canceled", err)
	}
}

func TestSimCtxCancelMidRun(t *testing.T) {
	// The reporter fires every cancelWindow steps on the simulating
	// goroutine; canceling from it stops the run at the next window
	// boundary, deterministically.
	ctx, cancel := context.WithCancel(context.Background())
	var events int
	rep := progress.Func(func(e progress.Event) {
		events++
		cancel()
	})
	r, err := FairRandomCtx(ctx, loopedStart(t), WithMaxSteps(1<<30), WithProgress(rep))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !reflect.DeepEqual(r, Result{}) {
		t.Fatalf("canceled run returned partial result: %+v", r)
	}
	if events == 0 {
		t.Fatal("no progress events before cancellation")
	}
}

func TestSimCtxCompletedRunBitIdentical(t *testing.T) {
	start := loopedStart(t)
	for name, pair := range map[string]struct {
		plain Runner
		ctxed RunnerCtx
	}{
		"gillespie":  {Gillespie, GillespieCtx},
		"fairrandom": {FairRandom, FairRandomCtx},
	} {
		want := pair.plain(start, WithMaxSteps(20_000), WithSeed(7))
		got, err := pair.ctxed(context.Background(), start, WithMaxSteps(20_000), WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Steps != want.Steps || got.Time != want.Time || got.Converged != want.Converged ||
			got.Final.String() != want.Final.String() {
			t.Fatalf("%s: ctx path diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestEnsembleCtxCancelAndComplete(t *testing.T) {
	start := loopedStart(t)

	// Canceled mid-ensemble: nil results, wrapped error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := EnsembleCtx(ctx, FairRandomCtx, start, 8, 1, WithMaxSteps(1<<20)); err == nil || res != nil {
		t.Fatalf("canceled ensemble: res=%v err=%v", res, err)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}

	// Completed: trial-for-trial identical to the plain Ensemble.
	want := Ensemble(FairRandom, start, 6, 42, WithMaxSteps(5_000))
	got, err := EnsembleCtx(context.Background(), FairRandomCtx, start, 6, 42, WithMaxSteps(5_000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Steps != want[i].Steps || got[i].Final.String() != want[i].Final.String() {
			t.Fatalf("trial %d diverged: got %+v want %+v", i, got[i], want[i])
		}
	}
}
