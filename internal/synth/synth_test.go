package synth

import (
	"errors"
	"testing"

	"crncompose/internal/crn"

	"crncompose/internal/classify"
	"crncompose/internal/quilt"
	"crncompose/internal/rat"
	"crncompose/internal/reach"
	"crncompose/internal/semilinear"
	"crncompose/internal/sim"
	"crncompose/internal/vec"
)

func TestMinCRNStablyComputesMin(t *testing.T) {
	c := MinCRN(2)
	if !c.IsOutputOblivious() {
		t.Fatal("min CRN must be output-oblivious")
	}
	res, err := reach.CheckGrid(c, func(x []int64) int64 { return min(x[0], x[1]) },
		[]int64{0, 0}, []int64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res)
	}
}

func TestMinCRN3Way(t *testing.T) {
	c := MinCRN(3)
	res, err := reach.CheckGrid(c, func(x []int64) int64 { return min(x[0], min(x[1], x[2])) },
		[]int64{0, 0, 0}, []int64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res)
	}
}

func TestMaxCRNStablyComputesMaxButNotOblivious(t *testing.T) {
	c := MaxCRN()
	if c.IsOutputOblivious() {
		t.Fatal("the Fig 1 max CRN consumes Y; it must not be output-oblivious")
	}
	if c.IsOutputMonotonic() {
		t.Fatal("the Fig 1 max CRN is not output-monotonic either")
	}
	res, err := reach.CheckGrid(c, func(x []int64) int64 { return max(x[0], x[1]) },
		[]int64{0, 0}, []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res)
	}
}

func TestDoubleCRN(t *testing.T) {
	res, err := reach.CheckGrid(DoubleCRN(), func(x []int64) int64 { return 2 * x[0] },
		[]int64{0}, []int64{30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res)
	}
}

func TestMinConst1Variants(t *testing.T) {
	f := func(x []int64) int64 { return min(1, x[0]) }
	leadered := MinConst1Leadered()
	if !leadered.IsOutputOblivious() {
		t.Error("leadered min(1,x) must be output-oblivious (Fig 2)")
	}
	leaderless := MinConst1Leaderless()
	if leaderless.IsOutputOblivious() {
		t.Error("leaderless min(1,x) from Fig 2 consumes Y; not output-oblivious")
	}
	res, err := reach.CheckGrid(leadered, f, []int64{0}, []int64{20})
	if err != nil || !res.OK() {
		t.Fatalf("leadered: %v %v", err, res)
	}
	res, err = reach.CheckGrid(leaderless, f, []int64{0}, []int64{20})
	if err != nil || !res.OK() {
		t.Fatalf("leaderless: %v %v", err, res)
	}
}

func TestClampCRN(t *testing.T) {
	for _, n := range []int64{0, 1, 3} {
		c := ClampCRN(n)
		if !c.IsOutputOblivious() {
			t.Fatalf("clamp(%d) not output-oblivious", n)
		}
		res, err := reach.CheckGrid(c, func(x []int64) int64 { return max(x[0]-n, 0) },
			[]int64{0}, []int64{3*n + 6})
		if err != nil || !res.OK() {
			t.Fatalf("clamp(%d): %v %v", n, err, res)
		}
	}
}

func TestIndicatorCRN(t *testing.T) {
	for _, j := range []int64{0, 1, 2} {
		c := IndicatorCRN(j)
		if !c.IsOutputOblivious() {
			t.Fatalf("indicator(%d) not output-oblivious", j)
		}
		f := func(x []int64) int64 {
			a, b, xi := x[0], x[1], x[2]
			if xi > j {
				return a + b
			}
			return a
		}
		res, err := reach.CheckGrid(c, f, []int64{0, 0, 0}, []int64{3, 3, j + 2})
		if err != nil || !res.OK() {
			t.Fatalf("indicator(%d): %v %v", j, err, res)
		}
	}
}

func TestFromQuiltFloorThreeHalves(t *testing.T) {
	// Fig 3a: ⌊3x/2⌋ = (3/2)x + B(x mod 2), B(0)=0, B(1)=−1/2.
	g := quilt.MustNew(rat.NewVec(rat.New(3, 2)), 2, []rat.R{rat.Zero(), rat.New(-1, 2)})
	c, err := FromQuilt(g)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsOutputOblivious() {
		t.Fatal("quilt CRN must be output-oblivious")
	}
	res, err := reach.CheckGrid(c, func(x []int64) int64 { return 3 * x[0] / 2 },
		[]int64{0}, []int64{25})
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
}

func TestFromQuilt2D(t *testing.T) {
	// Fig 3b-style: g(x) = (1,2)·x + B(x mod 3).
	f := semilinear.Fig3b()
	res, err := classify.Analyze(f, classify.Options{})
	if err != nil || !res.Computable {
		t.Fatalf("fig3b classification: %v / %+v", err, res)
	}
	if len(res.EventualMin.Terms) != 1 {
		t.Fatalf("fig3b should be a single quilt term")
	}
	c, err := FromQuilt(res.EventualMin.Terms[0])
	if err != nil {
		t.Fatal(err)
	}
	gr, err := reach.CheckGrid(c, func(x []int64) int64 { return f.Eval(vec.New(x...)) },
		[]int64{0, 0}, []int64{6, 6})
	if err != nil || !gr.OK() {
		t.Fatalf("%v %v", err, gr)
	}
}

func TestFromQuiltRejectsNegative(t *testing.T) {
	// g(x) = x − 1 is quilt-affine into Z but negative at 0.
	g := quilt.MustNew(rat.NewVec(rat.One()), 1, []rat.R{rat.FromInt(-1)})
	if _, err := FromQuilt(g); err == nil {
		t.Fatal("negative-range quilt accepted")
	}
}

func TestOneDimConstruction(t *testing.T) {
	tests := []struct {
		name string
		f    quilt.Eval1D
		hi   int64
	}{
		{"identity", func(x int64) int64 { return x }, 20},
		{"double", func(x int64) int64 { return 2 * x }, 15},
		{"floor3x2", func(x int64) int64 { return 3 * x / 2 }, 20},
		{"step", func(x int64) int64 {
			if x >= 3 {
				return 2
			}
			return 0
		}, 20},
		{"min(1,x)", func(x int64) int64 { return min(1, x) }, 20},
		{"affine+finite", func(x int64) int64 {
			// Arbitrary finite irregularity then affine (Fig 5 shape).
			table := []int64{0, 0, 1, 5}
			if x < int64(len(table)) {
				return table[x]
			}
			return 5 + 2*(x-3)
		}, 20},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := FitOneDim(tc.f, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := OneDim(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !c.IsOutputOblivious() {
				t.Fatal("Theorem 3.1 CRN must be output-oblivious")
			}
			res, err := reach.CheckGrid(c, func(x []int64) int64 { return tc.f(x[0]) },
				[]int64{0}, []int64{tc.hi})
			if err != nil || !res.OK() {
				t.Fatalf("%v %v", err, res)
			}
		})
	}
}

func TestLeaderlessOneDim(t *testing.T) {
	tests := []struct {
		name string
		f    quilt.Eval1D
		hi   int64
	}{
		{"identity", func(x int64) int64 { return x }, 12},
		{"double", func(x int64) int64 { return 2 * x }, 10},
		{"floor3x2", func(x int64) int64 { return 3 * x / 2 }, 12},
		{"floorx2", func(x int64) int64 { return x / 2 }, 14},
		{"x minus min(1,x)", func(x int64) int64 { return x - min(1, x) }, 12},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := FitOneDim(tc.f, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := LeaderlessOneDim(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c.Leader != "" {
				t.Fatal("Theorem 9.2 CRN must be leaderless")
			}
			if !c.IsOutputOblivious() {
				t.Fatal("Theorem 9.2 CRN must be output-oblivious")
			}
			res, err := reach.CheckGrid(c, func(x []int64) int64 { return tc.f(x[0]) },
				[]int64{0}, []int64{tc.hi})
			if err != nil || !res.OK() {
				t.Fatalf("%v %v", err, res)
			}
		})
	}
}

func TestLeaderlessRejectsNonSuperadditive(t *testing.T) {
	// min(1, x) is nondecreasing but NOT superadditive
	// (f(1)+f(1) = 2 > f(2) = 1): Observation 9.1 says no leaderless
	// output-oblivious CRN computes it.
	spec, err := FitOneDim(func(x int64) int64 { return min(1, x) }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeaderlessOneDim(spec); err == nil {
		t.Fatal("non-superadditive function accepted by Theorem 9.2 construction")
	}
	// f(0) ≠ 0 is also rejected.
	spec2, err := FitOneDim(func(x int64) int64 { return x + 1 }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeaderlessOneDim(spec2); err == nil {
		t.Fatal("f(0)=1 accepted by leaderless construction")
	}
}

func TestMonotonicToOblivious(t *testing.T) {
	// A CRN using Y catalytically: X → Y ; Y + A → Y + B ; B → Y.
	// With x = 0 no Y ever appears, so f(0, a) = 0; once one Y exists every
	// A converts, so f(x, a) = x + a for x ≥ 1. Output-monotonic but not
	// output-oblivious (Y catalyzes the second reaction).
	c := catalyticCRN()
	if c.IsOutputOblivious() {
		t.Fatal("test CRN should use Y as a catalyst")
	}
	if !c.IsOutputMonotonic() {
		t.Fatal("test CRN should be output-monotonic")
	}
	f := func(x []int64) int64 {
		if x[0] == 0 {
			return 0
		}
		return x[0] + x[1]
	}
	res, err := reach.CheckGrid(c, f, []int64{0, 0}, []int64{4, 4})
	if err != nil || !res.OK() {
		t.Fatalf("catalytic CRN wrong: %v %v", err, res)
	}
	obl, err := MonotonicToOblivious(c)
	if err != nil {
		t.Fatal(err)
	}
	if !obl.IsOutputOblivious() {
		t.Fatal("transform did not produce an output-oblivious CRN")
	}
	res, err = reach.CheckGrid(obl, f, []int64{0, 0}, []int64{4, 4})
	if err != nil || !res.OK() {
		t.Fatalf("transformed CRN wrong: %v %v", err, res)
	}
}

func TestMonotonicToObliviousRejectsConsumer(t *testing.T) {
	if _, err := MonotonicToOblivious(MaxCRN()); err == nil {
		t.Fatal("max CRN (which decreases Y) accepted by Observation 2.4 transform")
	}
}

func TestGeneralConstructionFig4a(t *testing.T) {
	f := semilinear.Fig4a()
	c, res, err := General(f, GeneralOptions{
		Classify: classify.Options{Bound: 8},
		N:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Computable {
		t.Fatal("fig4a must be computable")
	}
	if !c.IsOutputOblivious() {
		t.Fatal("general construction must be output-oblivious")
	}
	// Model-check small inputs exhaustively. The full 3×3 grid explores
	// ~10.4M configurations (about 7 s and 2 GB peak on 2 CPUs), so -short
	// verifies the 2×2 grid, which stays well inside CI budgets even
	// single-core. Every -short input is decided; at full size input (2,2)
	// exceeds the 1<<23 budget and is the one inconclusive input.
	hi, undecided := []int64{1, 1}, 0
	if !testing.Short() {
		hi, undecided = []int64{2, 2}, 1
	}
	gr, err := reach.CheckGrid(c, func(x []int64) int64 { return f.Eval(vec.New(x...)) },
		[]int64{0, 0}, hi,
		reach.WithMaxConfigs(1<<23))
	if err != nil {
		t.Fatal(err)
	}
	if !gr.OK() {
		t.Fatal(gr)
	}
	if gr.Inconclusive != undecided {
		t.Fatalf("%d inconclusive inputs, want %d: %v", gr.Inconclusive, undecided, gr)
	}
	t.Logf("fig4a CRN: %d species, %d reactions; %d configs explored over %d inputs",
		c.NumSpecies(), len(c.Reactions), gr.Explored, gr.Checked)
	// Larger inputs via fair random simulation (probability-1 semantics).
	for _, x := range []vec.V{vec.New(3, 2), vec.New(2, 5), vec.New(6, 6), vec.New(0, 7)} {
		want := f.Eval(x)
		results := sim.Ensemble(sim.FairRandom, c.MustInitialConfig(x), 8, 1000)
		for i, r := range results {
			if !r.Converged {
				t.Fatalf("x=%v trial %d did not converge", x, i)
			}
			if got := r.Final.Output(); got != want {
				t.Fatalf("x=%v trial %d: output %d, want %d", x, i, got, want)
			}
		}
	}
}

func TestGeneralConstructionMin(t *testing.T) {
	f := semilinear.Min2()
	c, _, err := General(f, GeneralOptions{
		Classify: classify.Options{Bound: 8},
		N:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := reach.CheckGrid(c, func(x []int64) int64 { return min(x[0], x[1]) },
		[]int64{0, 0}, []int64{2, 2},
		reach.WithMaxConfigs(1<<21))
	if err != nil {
		t.Fatal(err)
	}
	if !gr.OK() {
		t.Fatal(gr)
	}
}

func TestGeneralRejectsMax(t *testing.T) {
	_, res, err := General(semilinear.Max2(), GeneralOptions{})
	if err == nil {
		t.Fatal("max accepted by the general construction")
	}
	var nce *NotComputableError
	if !errors.As(err, &nce) {
		t.Fatalf("unexpected error type: %v", err)
	}
	if res == nil || res.Computable {
		t.Fatal("missing negative classification")
	}
}

func catalyticCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X", "A"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "Y"}, {Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}, {Coeff: 1, Sp: "B"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "B"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}
