package dist

import (
	"encoding/json"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/reach"
)

// minCRN stably computes min(x1, x2).
func minCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

// sumCRN computes x1+x2, so checking it against min refutes with a witness.
func sumCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

func minFunc(x []int64) int64 { return min(x[0], x[1]) }

// fakeClock is a manually advanced clock whose every observation also
// drifts forward by a small random jitter, so lease-expiry tests cannot
// silently depend on reads happening "at the same instant".
type fakeClock struct {
	mu  sync.Mutex
	t   time.Time
	rng *rand.Rand
	// maxJitter bounds the per-observation drift.
	maxJitter time.Duration
}

func newFakeClock(seed uint64) *fakeClock {
	return &fakeClock{
		t:         time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		rng:       rand.New(rand.NewPCG(seed, 17)),
		maxJitter: 3 * time.Millisecond,
	}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(time.Duration(f.rng.Int64N(int64(f.maxJitter))))
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// localRectResult checks one rectangle in-process and returns the wire-form
// ResultRequest a well-behaved worker would post.
func localRectResult(t *testing.T, c *crn.CRN, f reach.Func, r Rect, worker string, opts ...reach.Option) ResultRequest {
	t.Helper()
	res, err := reach.CheckGrid(c, f, r.Lo, r.Hi, opts...)
	req := ResultRequest{Worker: worker, RectID: r.ID}
	raw, merr := json.Marshal(res)
	if merr != nil {
		t.Fatal(merr)
	}
	req.Result = raw
	if err != nil {
		req.Err = err.Error()
	}
	return req
}
