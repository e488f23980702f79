package reach

import (
	"sync"
	"sync/atomic"
)

// testClaimJitter, when non-nil, is invoked by grid workers before every
// input claim. Tests install randomized sleeps to shuffle which worker
// checks which input and then assert the results are byte-identical
// anyway. Always nil outside tests; the write happens before any grid
// worker starts.
var testClaimJitter func()

// runGridJobs checks one chunk of grid inputs and returns per-job
// verdicts. Entries past the first failing index may be zero-valued: the
// caller aggregates in order and never reads them.
//
// Up to o.Workers goroutines claim whole inputs from one atomic cursor,
// and each input is explored sequentially by the worker that claimed it,
// so the schedule decides only who checks an input, never its verdict.
func runGridJobs(jobs []gridJob, o Options) ([]Verdict, error) {
	verdicts := make([]Verdict, len(jobs))
	// failMin is the smallest job index known to have failed; jobs after it
	// can be skipped since aggregation never reads past the first failure.
	// It only decreases, so every index ≤ its final value is guaranteed to
	// have been fully checked.
	var next, failMin atomic.Int64
	failMin.Store(int64(len(jobs)))
	// ferr records the first cancellation any worker observed. Once the
	// shared context is canceled every in-flight exploration unwinds at its
	// next poll and every later claim fails on entry, so the whole chunk
	// drains promptly; wg.Wait below guarantees no goroutine outlives the
	// call even on the error path.
	var ferr firstError
	var wg sync.WaitGroup
	for range min(o.Workers, len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gridWorker(jobs, verdicts, o, &next, &failMin, &ferr)
		}()
	}
	wg.Wait()
	if err := ferr.get(); err != nil {
		return nil, err
	}
	return verdicts, nil
}

// firstError keeps the first error set; later sets are dropped.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (e *firstError) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *firstError) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func gridWorker(jobs []gridJob, verdicts []Verdict, o Options, next, failMin *atomic.Int64, ferr *firstError) {
	for {
		if testClaimJitter != nil {
			testClaimJitter()
		}
		i := next.Add(1) - 1
		if i >= int64(len(jobs)) {
			return
		}
		if i > failMin.Load() {
			continue
		}
		v, err := checkInput(jobs[i].root, jobs[i].want, o)
		if err != nil {
			// Cancellation: stop claiming. Workers still exploring see the
			// same canceled context at their next poll, so leaving the
			// remaining indices unclaimed never strands anyone.
			ferr.set(err)
			return
		}
		verdicts[i] = v
		if !v.OK && !v.Inconclusive {
			for {
				cur := failMin.Load()
				if i >= cur || failMin.CompareAndSwap(cur, i) {
					break
				}
			}
		}
	}
}
