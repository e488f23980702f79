package classify

import (
	"strings"
	"testing"

	"crncompose/internal/rat"
	"crncompose/internal/semilinear"
	"crncompose/internal/vec"
)

func analyze(t *testing.T, f *semilinear.Func) *Result {
	t.Helper()
	res, err := Analyze(f, Options{WitnessSearch: true})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", f.Name, err)
	}
	return res
}

func requireComputable(t *testing.T, f *semilinear.Func) *Result {
	t.Helper()
	res := analyze(t, f)
	if !res.Computable {
		t.Fatalf("%s should be obliviously-computable; got: %s", f.Name, res.Reason)
	}
	return res
}

func requireNotComputable(t *testing.T, f *semilinear.Func) *Result {
	t.Helper()
	res := analyze(t, f)
	if res.Computable {
		t.Fatalf("%s should NOT be obliviously-computable", f.Name)
	}
	if res.Contradiction == nil {
		t.Fatalf("%s: negative verdict without Lemma 4.1 contradiction", f.Name)
	}
	if err := res.Contradiction.Verify(func(x vec.V) int64 { return f.Eval(x) }); err != nil {
		t.Fatalf("%s: contradiction does not verify: %v", f.Name, err)
	}
	return res
}

// checkNormalForm verifies f(x) = min_k g_k(x) for all x in [N, N+span]^d.
func checkNormalForm(t *testing.T, f *semilinear.Func, res *Result, span int64) {
	t.Helper()
	hi := res.N.Add(vec.Const(f.Dim(), span))
	vec.Grid(res.N, hi, func(x vec.V) bool {
		if got, want := res.EventualMin.Eval(x), f.Eval(x); got != want {
			t.Fatalf("%s: min(x)=%d ≠ f(x)=%d at %v", f.Name, got, want, x)
			return false
		}
		return true
	})
}

func TestMinComputable(t *testing.T) {
	f := semilinear.Min2()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 20)
	if len(res.EventualMin.Terms) != 2 {
		t.Errorf("min should decompose into 2 quilt-affine terms, got %d", len(res.EventualMin.Terms))
	}
}

func TestMaxNotComputable(t *testing.T) {
	res := requireNotComputable(t, semilinear.Max2())
	if !strings.Contains(res.Reason, "dominate") {
		t.Errorf("expected a domination failure (Lemma 7.9), got: %s", res.Reason)
	}
	// The classic witness shape from Section 4: steps along one axis.
	if res.Contradiction.Step.IsZero() {
		t.Error("contradiction step is zero")
	}
}

func TestEquation2NotComputable(t *testing.T) {
	// Equation (2) of the paper: a single affine function depressed along
	// the diagonal. All determined extensions agree (and dominate), so the
	// failure is in the under-determined strip (Lemma 7.20).
	res := requireNotComputable(t, semilinear.Equation2())
	if !strings.Contains(res.Reason, "strip") {
		t.Errorf("expected a strip/Lemma 7.20 failure, got: %s", res.Reason)
	}
}

func TestFig7Computable(t *testing.T) {
	f := semilinear.Fig7()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 20)
	// Paper Section 7.1: f = min(x1+1, x2+1, ⌈(x1+x2)/2⌉) — three
	// distinct quilt-affine terms.
	if len(res.EventualMin.Terms) != 3 {
		t.Fatalf("fig7 should decompose into 3 terms (g1, g2, gU), got %d: %s",
			len(res.EventualMin.Terms), res.EventualMin)
	}
	// One term must be the period-2 average gU = ⌈(x1+x2)/2⌉.
	foundAvg := false
	for _, term := range res.EventualMin.Terms {
		if term.Period() == 2 {
			foundAvg = true
			for _, x := range []vec.V{vec.New(4, 4), vec.New(5, 4), vec.New(7, 9)} {
				want := (x[0] + x[1] + 1) / 2 // ⌈(x1+x2)/2⌉
				if got := term.Eval(x); got != want {
					t.Errorf("gU(%v) = %d, want ⌈(x1+x2)/2⌉ = %d", x, got, want)
				}
			}
		}
	}
	if !foundAvg {
		t.Error("no period-2 averaged extension gU found (Lemma 7.16)")
	}
}

func TestFig4aComputable(t *testing.T) {
	f := semilinear.Fig4a()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 15)
	// min(x1+x2, 2x1+1, 2x2+1): three affine terms.
	if len(res.EventualMin.Terms) != 3 {
		t.Errorf("fig4a should decompose into 3 terms, got %d", len(res.EventualMin.Terms))
	}
}

func TestSumPlusMinComputable(t *testing.T) {
	f := semilinear.SumPlusMin()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 20)
}

func TestFloorThreeHalvesComputable(t *testing.T) {
	f := semilinear.FloorThreeHalves()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 40)
	if len(res.EventualMin.Terms) != 1 {
		t.Fatalf("⌊3x/2⌋ is itself quilt-affine; got %d terms", len(res.EventualMin.Terms))
	}
	g := res.EventualMin.Terms[0]
	if g.Period() != 2 {
		t.Errorf("period = %d, want 2", g.Period())
	}
	for x := int64(0); x < 30; x++ {
		if got, want := g.Eval(vec.New(x)), 3*x/2; got != want {
			t.Errorf("g(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestFig3bComputable(t *testing.T) {
	f := semilinear.Fig3b()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 12)
	if len(res.EventualMin.Terms) != 1 {
		t.Fatalf("fig3b is quilt-affine; got %d terms", len(res.EventualMin.Terms))
	}
	if p := res.EventualMin.Terms[0].Period(); p != 3 {
		t.Errorf("period = %d, want 3", p)
	}
}

func TestIdentityAndDouble(t *testing.T) {
	for _, f := range []*semilinear.Func{semilinear.Identity(), semilinear.Double()} {
		res := requireComputable(t, f)
		checkNormalForm(t, f, res, 50)
	}
}

func TestStepComputable(t *testing.T) {
	// f(x) = 2·1{x ≥ 3}.
	ge := semilinear.Threshold{A: vec.New(1), B: 3}
	f := semilinear.MustNew(1, "step",
		semilinear.Piece{Domain: ge, Grad: rat.ZeroVec(1), Off: rat.FromInt(2)},
		semilinear.Piece{Domain: semilinear.Not{Op: ge}, Grad: rat.ZeroVec(1), Off: rat.Zero()},
	)
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 40)
	// Eventually constant 2.
	if got := res.EventualMin.Eval(res.N); got != 2 {
		t.Errorf("step value %d, want 2", got)
	}
}

func TestMinConst1(t *testing.T) {
	f := semilinear.MinConst1()
	res := requireComputable(t, f)
	checkNormalForm(t, f, res, 40)
}

func TestDecreasingRejected(t *testing.T) {
	// f(x) = max(0, 3-x) is decreasing: rejected by condition (i).
	ge3 := semilinear.Threshold{A: vec.New(1), B: 3}
	f := semilinear.MustNew(1, "decreasing",
		semilinear.Piece{Domain: ge3, Grad: ratVec0(1), Off: ratInt(0)},
		semilinear.Piece{Domain: semilinear.Not{Op: ge3}, Grad: ratVecNeg1(), Off: ratInt(3)},
	)
	res := analyze(t, f)
	if res.Computable {
		t.Fatal("decreasing function accepted")
	}
	if !strings.Contains(res.Reason, "decreasing") {
		t.Errorf("reason = %s", res.Reason)
	}
}

func TestRestrictionsOfFig4a(t *testing.T) {
	// Condition (iii): every fixed-input restriction of a computable f must
	// classify as computable. f[x(1)→j](x) = min(j+x, 2j+1, 2x+1).
	f := semilinear.Fig4a()
	for j := int64(0); j <= 3; j++ {
		r := f.Restrict(0, j)
		res, err := Analyze(r, Options{})
		if err != nil {
			t.Fatalf("restriction j=%d: %v", j, err)
		}
		if !res.Computable {
			t.Fatalf("restriction j=%d not computable: %s", j, res.Reason)
		}
		// Spot-check the normal form value.
		for x := res.N[0]; x < res.N[0]+10; x++ {
			want := r.Eval(vec.New(x))
			if got := res.EventualMin.Eval(vec.New(x)); got != want {
				t.Errorf("j=%d: min(%d)=%d, want %d", j, x, got, want)
			}
		}
	}
}

func TestRestrictionsOfMaxStillComputable1D(t *testing.T) {
	// max's restrictions max(j, x) ARE computable (they are 1D semilinear
	// nondecreasing, Theorem 3.1); the failure of max is purely condition
	// (ii).
	f := semilinear.Max2()
	for j := int64(0); j <= 2; j++ {
		r := f.Restrict(0, j)
		res, err := Analyze(r, Options{})
		if err != nil {
			t.Fatalf("restriction j=%d: %v", j, err)
		}
		if !res.Computable {
			t.Errorf("max(%d, x) should be computable: %s", j, res.Reason)
		}
	}
}

func TestEventualMinTermsAreValidQuilt(t *testing.T) {
	res := requireComputable(t, semilinear.Fig7())
	for _, g := range res.EventualMin.Terms {
		// Every term must have nonnegative finite differences everywhere
		// (validated by construction; re-check a window).
		for i := 0; i < g.Dim(); i++ {
			vec.Grid(vec.Zero(g.Dim()), vec.Const(g.Dim(), g.Period()-1), func(a vec.V) bool {
				d, err := g.FiniteDifference(i, a)
				if err != nil || d < 0 {
					t.Errorf("δ_{%d,%v} = %d, err=%v", i, a, d, err)
				}
				return true
			})
		}
	}
}

func TestDedupCollapsesEqualExtensions(t *testing.T) {
	// Equation-2's two determined regions share one extension, but the
	// verdict is negative. Use a computable function with duplicated
	// structure instead: f = x1 + x2 with a redundant threshold split.
	le := semilinear.Threshold{A: vec.New(-1, 1), B: 0}
	grad := ratVec11()
	f := semilinear.MustNew(2, "split-sum",
		semilinear.Piece{Domain: le, Grad: grad, Off: ratInt(0)},
		semilinear.Piece{Domain: semilinear.Not{Op: le}, Grad: grad, Off: ratInt(0)},
	)
	res := requireComputable(t, f)
	if len(res.EventualMin.Terms) != 1 {
		t.Errorf("duplicate extensions not deduped: %d terms", len(res.EventualMin.Terms))
	}
	checkNormalForm(t, f, res, 20)
}

func TestNormalFormMatchesQuiltMin(t *testing.T) {
	// Cross-validate: build min(⌊3x/2⌋-like, affine) by hand and compare
	// against the classifier output for fig4a restricted to 1D.
	f := semilinear.Fig4a().Restrict(1, 0) // min(x1, 1, 2x1+1) = min(x1, 1)
	res, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Computable {
		t.Fatalf("not computable: %s", res.Reason)
	}
	for x := int64(0); x < 30; x++ {
		want := min(x, 1)
		if got := f.Eval(vec.New(x)); got != want {
			t.Fatalf("restriction eval wrong: f(%d)=%d want %d", x, got, want)
		}
	}
}

// Small rational helpers keep the test tables terse.

func ratInt(n int64) rat.R { return rat.FromInt(n) }

func ratVec0(d int) rat.Vec { return rat.ZeroVec(d) }

func ratVecNeg1() rat.Vec { return rat.NewVec(rat.FromInt(-1)) }

func ratVec11() rat.Vec { return rat.NewVec(rat.One(), rat.One()) }
