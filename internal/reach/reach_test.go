package reach

import (
	"math"
	"slices"
	"strings"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

func minCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

func maxCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
	})
}

func TestExploreCounts(t *testing.T) {
	// min from (2,2): configurations are determined by how many reactions
	// fired: 3 configs.
	g := Explore(minCRN().MustInitialConfig(vec.New(2, 2)))
	if !g.Complete {
		t.Fatal("exploration incomplete")
	}
	if g.NumConfigs() != 3 {
		t.Errorf("explored %d configs, want 3", g.NumConfigs())
	}
}

func TestTraceReconstruction(t *testing.T) {
	g := Explore(maxCRN().MustInitialConfig(vec.New(2, 1)))
	for id := 0; id < g.NumConfigs(); id++ {
		tr := g.TraceTo(int32(id))
		final, err := tr.Replay()
		if err != nil {
			t.Fatalf("trace to %d: %v", id, err)
		}
		if final.Key() != g.Config(int32(id)).Key() {
			t.Fatalf("trace to %d lands on %s, want %s", id, final, g.Config(int32(id)))
		}
	}
}

func TestStableIDs(t *testing.T) {
	// For min from (1,2): firing gives {Y, X2}: terminal, stable with y=1.
	// The initial config can still fire, so it is not stable.
	g := Explore(minCRN().MustInitialConfig(vec.New(1, 2)))
	stable := g.StableIDs()
	if len(stable) != 1 {
		t.Fatalf("stable ids = %v", stable)
	}
	if g.Output(stable[0]) != 1 {
		t.Errorf("stable output = %d", g.Output(stable[0]))
	}
}

func TestCheckInputVerifiesMax(t *testing.T) {
	// The max CRN stably computes max despite transient overshoot.
	v := CheckInput(maxCRN().MustInitialConfig(vec.New(2, 3)), 3)
	if !v.OK {
		t.Fatalf("max CRN refuted: %v", v.Err)
	}
}

func TestCheckInputCatchesWrongValue(t *testing.T) {
	v := CheckInput(maxCRN().MustInitialConfig(vec.New(2, 3)), 4)
	if v.OK {
		t.Fatal("wrong expected value accepted")
	}
}

func TestCheckInputCatchesOverproduction(t *testing.T) {
	// A broken "min" that fires per-input: X1 → Y (wrong).
	broken := crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	v := CheckInput(broken.MustInitialConfig(vec.New(3, 0)), 0)
	if v.OK {
		t.Fatal("overproducing CRN accepted")
	}
	if v.Witness == nil {
		t.Fatal("no witness trace")
	}
	final, err := v.Witness.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if final.Output() <= 0 {
		t.Error("witness does not overshoot")
	}
}

func TestCheckInputCatchesDeadlock(t *testing.T) {
	// A CRN that can consume its inputs without producing output:
	// X1 + X2 → Y competes with X1 + X2 → K (dead end).
	racy := crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
	})
	v := CheckInput(racy.MustInitialConfig(vec.New(1, 1)), 1)
	if v.OK {
		t.Fatal("racy CRN accepted")
	}
	if v.Witness == nil || !strings.Contains(v.Err.Error(), "cannot reach") {
		t.Fatalf("unexpected refutation: %v", v.Err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// X → 2X grows without bound: exploration must stop and report
	// inconclusive rather than hanging.
	grower := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}}},
	})
	v := CheckInput(grower.MustInitialConfig(vec.New(1)), 0, WithMaxConfigs(100))
	if !v.Inconclusive {
		t.Fatalf("expected inconclusive, got %+v", v)
	}
	// With a count cap instead.
	v = CheckInput(grower.MustInitialConfig(vec.New(1)), 0, WithMaxCount(50))
	if !v.Inconclusive {
		t.Fatalf("expected inconclusive under count cap, got %+v", v)
	}
}

func TestCheckGrid(t *testing.T) {
	res, err := CheckGrid(minCRN(), func(x []int64) int64 { return min(x[0], x[1]) },
		[]int64{0, 0}, []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Checked != 25 {
		t.Fatalf("grid: %v", res)
	}
	// Wrong function: failure recorded with input.
	res, err = CheckGrid(minCRN(), func(x []int64) int64 { return x[0] },
		[]int64{0, 0}, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("wrong function accepted")
	}
	if res.Failure.Input[0] == res.Failure.Input[1] {
		t.Errorf("failure should be off-diagonal, got %v", res.Failure.Input)
	}
}

func TestCheckGridArityMismatch(t *testing.T) {
	if _, err := CheckGrid(minCRN(), func(x []int64) int64 { return 0 }, []int64{0}, []int64{1}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestCheckGridEmptyAxis: an empty grid is an error in every mode, and
// nothing is checked — not even the lo corner, which lies outside it.
func TestCheckGridEmptyAxis(t *testing.T) {
	calls := 0
	f := func(x []int64) int64 { calls++; return min(x[0], x[1]) }
	res, err := CheckGrid(minCRN(), f, []int64{5, 5}, []int64{3, 3})
	if err == nil || !strings.Contains(err.Error(), "empty grid axis 0") {
		t.Fatalf("err = %v, want an empty-axis error", err)
	}
	if res != (GridResult{}) || calls != 0 {
		t.Fatalf("empty grid checked something: %v (f called %d times)", res, calls)
	}
}

func TestGridSize(t *testing.T) {
	if n, err := GridPoints(2, []int64{0, 0}, []int64{3, 2}); n != 12 || err != nil {
		t.Fatalf("GridPoints = %d, %v, want 12", n, err)
	}
	if n, err := GridPoints(1, []int64{1}, []int64{0}); err == nil {
		t.Fatalf("empty axis GridPoints = %d, want an error", n)
	}
	if n, err := GridPoints(0, nil, nil); n != 1 || err != nil {
		t.Fatalf("0-arity GridPoints = %d, %v, want 1", n, err)
	}
	// Arity mismatch and every int64 overflow are errors, never a wrapped
	// count.
	for _, tc := range []struct {
		d      int
		lo, hi []int64
	}{
		{2, []int64{0}, []int64{3}},
		{1, []int64{0}, []int64{math.MaxInt64}},                   // extent 2^63
		{2, []int64{0, 0}, []int64{math.MaxInt64, math.MaxInt64}}, // extents wrap, product wraps to 0
		{1, []int64{-2}, []int64{math.MaxInt64}},                  // hi - lo itself overflows
		{1, []int64{math.MinInt64}, []int64{math.MaxInt64}},       // extent 2^64 wraps to 0
		{2, []int64{0, 0}, []int64{3_037_000_499, 3_037_000_499}}, // 3037000500^2 > MaxInt64
	} {
		if n, err := GridPoints(tc.d, tc.lo, tc.hi); err == nil {
			t.Errorf("GridPoints(%d, %v, %v) = %d, want an error", tc.d, tc.lo, tc.hi, n)
		}
	}
	// The largest representable grids still count.
	if n, err := GridPoints(1, []int64{1}, []int64{math.MaxInt64}); n != math.MaxInt64 || err != nil {
		t.Fatalf("GridPoints(1, [1], [MaxInt64]) = %d, %v", n, err)
	}
	if n, err := GridPoints(2, []int64{0, 0}, []int64{3_037_000_498, 3_037_000_498}); n != 3_037_000_499*3_037_000_499 || err != nil {
		t.Fatalf("GridPoints just inside int64 = %d, %v", n, err)
	}
}

func TestVerdictOnLeaderedCRN(t *testing.T) {
	// L + X → Y computes min(1, x).
	c := crn.MustNew([]crn.Species{"X"}, "Y", "L", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	res, err := CheckGrid(c, func(x []int64) int64 { return min(1, x[0]) }, []int64{0}, []int64{10})
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
}

func TestGridInconclusiveCounting(t *testing.T) {
	// X → 2X is unbounded for every x ≥ 1; x = 0 is trivially stable. The
	// grid must count the inconclusive inputs without failing.
	grower := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}}},
	})
	res, err := CheckGrid(grower, func(x []int64) int64 { return 0 },
		[]int64{0}, []int64{3}, WithMaxConfigs(50))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("inconclusive inputs must not refute: %v", res)
	}
	if res.Checked != 4 || res.Inconclusive != 3 {
		t.Fatalf("checked=%d inconclusive=%d, want 4/3", res.Checked, res.Inconclusive)
	}
	if !strings.Contains(res.String(), "3 inconclusive") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestGridResultString(t *testing.T) {
	ok := GridResult{Checked: 9, Inconclusive: 1, Explored: 1234}
	if s := ok.String(); !strings.Contains(s, "9 checked") || !strings.Contains(s, "1234 explored") {
		t.Errorf("ok String() = %q", s)
	}
	fail := GridResult{
		Checked: 2,
		Failure: &GridFailure{Input: []int64{1, 2}, Want: 3, Verdict: Verdict{Err: ErrBudget}},
	}
	if s := fail.String(); !strings.Contains(s, "FAIL at input=[1 2]") || !strings.Contains(s, "want 3") {
		t.Errorf("fail String() = %q", s)
	}
}

func TestCheckGridParallelMatchesSequential(t *testing.T) {
	// The parallel scheduler must report the identical first failure (in
	// grid order) and identical counts for the prefix before it.
	f := func(x []int64) int64 { return x[0] } // wrong for min: fails off-diagonal
	seq, err := CheckGrid(minCRN(), f, []int64{0, 0}, []int64{5, 5}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := CheckGrid(minCRN(), f, []int64{0, 0}, []int64{5, 5}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if par.OK() || seq.OK() {
			t.Fatal("wrong function accepted")
		}
		if !slices.Equal(par.Failure.Input, seq.Failure.Input) {
			t.Fatalf("workers=%d: failure at %v, sequential failed at %v", workers, par.Failure.Input, seq.Failure.Input)
		}
		if par.Checked != seq.Checked || par.Explored != seq.Explored {
			t.Fatalf("workers=%d: checked/explored %d/%d, sequential %d/%d",
				workers, par.Checked, par.Explored, seq.Checked, seq.Explored)
		}
	}
	// And on an all-OK grid the totals must be independent of the worker
	// count.
	want := func(x []int64) int64 { return min(x[0], x[1]) }
	seqOK, err := CheckGrid(minCRN(), want, []int64{0, 0}, []int64{5, 5}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parOK, err := CheckGrid(minCRN(), want, []int64{0, 0}, []int64{5, 5}, WithWorkers(4))
	if err != nil || !parOK.OK() {
		t.Fatalf("%v %v", err, parOK)
	}
	if parOK != seqOK {
		t.Fatalf("parallel %+v != sequential %+v", parOK, seqOK)
	}
}

func TestCheckGridNegativeFunction(t *testing.T) {
	// A negative f stops the grid with an error; earlier inputs are still
	// counted.
	calls := 0
	f := func(x []int64) int64 {
		calls++
		if x[0] == 1 && x[1] == 0 {
			return -1
		}
		return min(x[0], x[1])
	}
	res, err := CheckGrid(minCRN(), f, []int64{0, 0}, []int64{2, 2})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v", err)
	}
	if res.Checked != 3 { // (0,0) (0,1) (0,2) precede (1,0) lexicographically
		t.Fatalf("checked = %d, want 3", res.Checked)
	}
}
