package reach

import (
	"sync"
	"sync/atomic"
)

// stealPool coordinates one fixed set of goroutines across the two
// parallelism levels of a grid check. Workers prefer whole grid inputs (the
// embarrassingly parallel outer level); once the inputs run dry they migrate
// into still-running explorations by stealing frontier slices of the level
// currently being expanded, instead of idling at the chunk barrier. The same
// pool backs a standalone parallel Explore, with o.Workers-1 dedicated
// helpers draining it. The only work ever published is a levelTask, one BFS
// level's expansion; claiming is lock-free inside the task, and the pool
// only tracks which tasks still have unclaimed frontier slices.
//
// Determinism: stealing never changes any output. A levelTask's expansion
// record for frontier node j depends only on that node's row (see
// levelTask.work), so the records are identical however the claimed slices
// land on workers, and the owner's renumbering replay (replayLevelSeq in
// parallel.go) erases the scheduling-dependent provisional ids. The pool
// therefore preserves the byte-identical-Graph contract at any worker count
// and any steal schedule.
type stealPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	tasks []*levelTask // in-flight level expansions open for stealing
	// owners counts goroutines that may still publish tasks: grid workers
	// inside a checkInput, or a standalone Explore's calling goroutine.
	// Helpers exit when owners reaches 0 with no stealable work left.
	owners int
}

// testStealJitter, when non-nil, is invoked by pool workers around claim
// points. Tests install randomized sleeps to shuffle steal schedules and
// then assert the results are byte-identical anyway. Always nil outside
// tests; the write happens before any pool goroutine starts.
var testStealJitter func()

func newStealPool() *stealPool {
	p := &stealPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// addOwner registers a goroutine that may publish tasks. Grid workers call
// it before claiming a job index so that a racing helper can never observe
// owners == 0 while a just-claimed exploration is about to publish work.
func (p *stealPool) addOwner() {
	p.mu.Lock()
	p.owners++
	p.mu.Unlock()
}

// dropOwner deregisters an owner, waking waiting helpers only when the last
// owner leaves: helpers blocked in steal wait for either new tasks (signaled
// by publish) or pool drain (owners hitting 0), so intermediate drops have
// nothing to tell them.
func (p *stealPool) dropOwner() {
	p.mu.Lock()
	p.owners--
	last := p.owners == 0
	p.mu.Unlock()
	if last {
		p.cond.Broadcast()
	}
}

// publish offers t's unclaimed slices to idle pool workers.
func (p *stealPool) publish(t *levelTask) {
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// retract removes t once it is fully processed. Helpers still holding t see
// an exhausted claim cursor and fall back to steal().
func (p *stealPool) retract(t *levelTask) {
	p.mu.Lock()
	for i, x := range p.tasks {
		if x == t {
			p.tasks = append(p.tasks[:i], p.tasks[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// steal blocks until some published task has unclaimed work and returns it.
// It returns nil once no owner remains to publish more — the pool is
// drained.
func (p *stealPool) steal() *levelTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for _, t := range p.tasks {
			if t.unclaimed() {
				return t
			}
		}
		if p.owners == 0 {
			return nil
		}
		p.cond.Wait()
	}
}

// drain is the helper loop: steal and expand frontier slices until the pool
// is exhausted.
func (p *stealPool) drain() {
	for {
		if testStealJitter != nil {
			testStealJitter()
		}
		t := p.steal()
		if t == nil {
			return
		}
		t.work()
	}
}

// runGridJobs checks one chunk of grid inputs on the shared work-stealing
// pool and returns per-job verdicts. Entries past the first failing index
// may be zero-valued: the caller aggregates in order and never reads them.
//
// o.Workers goroutines serve both parallelism levels: each claims grid
// inputs while any remain, exploring each claimed input as that
// exploration's owner; workers that run out of inputs migrate into the
// still-running explorations via the pool. A chunk with at least o.Workers
// inputs therefore starts all-outer, and a single large input ends up with
// every worker expanding its frontiers — with every intermediate skew
// rebalancing itself, which is what the old static outer × inner split
// could not do.
func runGridJobs(jobs []gridJob, o Options) ([]Verdict, error) {
	verdicts := make([]Verdict, len(jobs))
	if len(jobs) == 0 {
		return verdicts, nil
	}
	if o.Workers <= 1 {
		for i := range jobs {
			v, err := checkInput(jobs[i].root, jobs[i].want, o, nil)
			if err != nil {
				return nil, err
			}
			verdicts[i] = v
			if !v.OK && !v.Inconclusive {
				break
			}
		}
		return verdicts, nil
	}
	pool := newStealPool()
	// failMin is the smallest job index known to have failed; jobs after it
	// can be skipped since aggregation never reads past the first failure.
	// It only decreases, so every index ≤ its final value is guaranteed to
	// have been fully checked.
	var next, failMin atomic.Int64
	failMin.Store(int64(len(jobs)))
	// ferr records the first cancellation any worker observed. Once the
	// shared context is canceled every in-flight exploration unwinds at its
	// next level barrier and every later claim fails on entry, so the whole
	// chunk drains promptly; wg.Wait below guarantees no goroutine outlives
	// the call even on the error path.
	var ferr firstError
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gridWorker(jobs, verdicts, o, pool, &next, &failMin, &ferr)
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

func gridWorker(jobs []gridJob, verdicts []Verdict, o Options, pool *stealPool, next, failMin *atomic.Int64, ferr *firstError) {
	for {
		if testStealJitter != nil {
			testStealJitter()
		}
		pool.addOwner()
		i := next.Add(1) - 1
		if i >= int64(len(jobs)) {
			pool.dropOwner()
			break
		}
		if i > failMin.Load() {
			pool.dropOwner()
			continue
		}
		v, err := checkInput(jobs[i].root, jobs[i].want, o, pool)
		pool.dropOwner()
		if err != nil {
			// Cancellation: stop claiming. Workers still exploring see the
			// same canceled context at their next level barrier, so leaving
			// the remaining indices unclaimed never strands anyone.
			ferr.set(err)
			break
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
	// No inputs left: migrate into in-flight explorations until the whole
	// chunk is done.
	pool.drain()
}
