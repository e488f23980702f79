package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"crncompose/internal/crn"
)

// Runner is any single-trial simulation function (Gillespie, FairRandom, or
// a RunScheduled closure).
type Runner func(start crn.Config, opts ...Option) Result

// RunnerCtx is a cancellation-aware single-trial simulation function
// (GillespieCtx or FairRandomCtx).
type RunnerCtx func(ctx context.Context, start crn.Config, opts ...Option) (Result, error)

// DefaultMethod is the method crnsim and /v1/simulate run when none is given.
const DefaultMethod = "fair"

// RunnerByName returns the simulator a method name selects: "fair"
// (FairRandomCtx) or "gillespie" (GillespieCtx).
func RunnerByName(method string) (RunnerCtx, error) {
	switch method {
	case "fair":
		return FairRandomCtx, nil
	case "gillespie":
		return GillespieCtx, nil
	}
	return nil, fmt.Errorf("sim: unknown method %q", method)
}

// Ensemble runs trials independent simulations of start in parallel,
// seeding trial i with baseSeed+i, and returns all results in trial order.
// It is EnsembleCtx under a context that is never canceled.
func Ensemble(run Runner, start crn.Config, trials int, baseSeed uint64, opts ...Option) []Result {
	results, _ := EnsembleCtx(context.Background(), func(_ context.Context, start crn.Config, opts ...Option) (Result, error) {
		return run(start, opts...), nil
	}, start, trials, baseSeed, opts...) // run never fails, so neither does the ensemble
	return results
}

// EnsembleCtx runs trials simulations like Ensemble, under a cancellation
// context: each trial runs on the ctx-aware runner, and workers stop
// claiming trials once the context is canceled. A canceled ensemble returns
// nil results and the first wrapped ctx.Err() a trial observed — never a
// partially filled slice — and a completed ensemble is trial-for-trial
// identical to Ensemble's (same per-trial seeding, same trial order).
func EnsembleCtx(ctx context.Context, run RunnerCtx, start crn.Config, trials int, baseSeed uint64, opts ...Option) ([]Result, error) {
	results := make([]Result, trials)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int, trials)
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				trialOpts := append(append([]Option(nil), opts...), WithSeed(baseSeed+uint64(i)))
				r, err := run(ctx, start, trialOpts...)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					// Keep draining the channel: each remaining trial fails
					// on its first poll, so the ensemble unwinds promptly
					// without leaving goroutines parked on unclaimed trials.
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Stats summarizes an ensemble's final output counts.
type Stats struct {
	Trials      int
	Converged   int
	MeanOutput  float64
	MinOutput   int64
	MaxOutput   int64
	MeanSteps   float64
	MedianSteps int64
	// AllEqual is true when every converged trial produced the same output.
	AllEqual bool
}

// Summarize computes ensemble statistics over results.
func Summarize(results []Result) Stats {
	s := Stats{Trials: len(results), AllEqual: true}
	if len(results) == 0 {
		return s
	}
	var sumY, sumSteps float64
	steps := make([]int64, 0, len(results))
	first := true
	var firstY int64
	for _, r := range results {
		y := r.Final.Output()
		if first {
			s.MinOutput, s.MaxOutput, firstY = y, y, y
			first = false
		}
		if y < s.MinOutput {
			s.MinOutput = y
		}
		if y > s.MaxOutput {
			s.MaxOutput = y
		}
		if y != firstY {
			s.AllEqual = false
		}
		if r.Converged {
			s.Converged++
		}
		sumY += float64(y)
		sumSteps += float64(r.Steps)
		steps = append(steps, r.Steps)
	}
	s.MeanOutput = sumY / float64(len(results))
	s.MeanSteps = sumSteps / float64(len(results))
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	s.MedianSteps = steps[len(steps)/2]
	return s
}
