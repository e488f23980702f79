package quilt

import (
	"testing"
	"testing/quick"

	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

// floor3x2 is ⌊3x/2⌋ = (3/2)x + B(x mod 2) with B(0)=0, B(1)=−1/2 (Fig 3a).
func floor3x2(t *testing.T) *Func {
	t.Helper()
	g, err := New(rat.NewVec(rat.New(3, 2)), 2, []rat.R{rat.Zero(), rat.New(-1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fig3b is g(x) = (1,2)·x + B(x mod 3), B = −1 on {(1,2),(2,2),(2,1)}.
func fig3b(t *testing.T) *Func {
	t.Helper()
	offsets := make([]rat.R, 9)
	for i := range offsets {
		offsets[i] = rat.Zero()
	}
	for _, a := range []vec.V{vec.New(1, 2), vec.New(2, 2), vec.New(2, 1)} {
		offsets[vec.CongruenceIndex(a, 3)] = rat.FromInt(-1)
	}
	g, err := New(rat.NewVec(rat.One(), rat.FromInt(2)), 3, offsets)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEvalFloor3x2(t *testing.T) {
	g := floor3x2(t)
	for x := int64(0); x < 50; x++ {
		if got, want := g.Eval(vec.New(x)), 3*x/2; got != want {
			t.Errorf("g(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestFiniteDifferences(t *testing.T) {
	g := floor3x2(t)
	// δ_0 = g(1)−g(0) = 1; δ_1 = g(2)−g(1) = 2.
	d0, err := g.FiniteDifference(0, vec.New(0))
	if err != nil || d0 != 1 {
		t.Errorf("δ_0 = %d (%v)", d0, err)
	}
	d1, err := g.FiniteDifference(0, vec.New(1))
	if err != nil || d1 != 2 {
		t.Errorf("δ_1 = %d (%v)", d1, err)
	}
}

func TestFiniteDifferenceReconstructionProperty(t *testing.T) {
	// Property: g(x) = g(0) + Σ walk of finite differences, any path.
	g := fig3b(t)
	err := quick.Check(func(a, b uint8) bool {
		x := vec.New(int64(a%12), int64(b%12))
		// Walk x1 steps right then x2 steps up, summing differences.
		sum := g.Eval(vec.Zero(2))
		cur := vec.Zero(2)
		for i := int64(0); i < x[0]; i++ {
			d, err := g.FiniteDifference(0, cur)
			if err != nil {
				return false
			}
			sum += d
			cur = cur.Add(vec.Unit(2, 0))
		}
		for i := int64(0); i < x[1]; i++ {
			d, err := g.FiniteDifference(1, cur)
			if err != nil {
				return false
			}
			sum += d
			cur = cur.Add(vec.Unit(2, 1))
		}
		return sum == g.Eval(x)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestValidationRejectsDecreasing(t *testing.T) {
	// Gradient 0 with offsets making g decrease: B(0)=1, B(1)=0 under
	// period 2 gives g(0)=1 > g(1)=0.
	if _, err := New(rat.ZeroVec(1), 2, []rat.R{rat.One(), rat.Zero()}); err == nil {
		t.Fatal("decreasing offsets accepted")
	}
	// Negative gradient rejected outright.
	if _, err := New(rat.NewVec(rat.FromInt(-1)), 1, []rat.R{rat.Zero()}); err == nil {
		t.Fatal("negative gradient accepted")
	}
}

func TestValidationRejectsNonInteger(t *testing.T) {
	// (1/2)x with zero offsets is not integer-valued at odd x.
	if _, err := New(rat.NewVec(rat.New(1, 2)), 2, []rat.R{rat.Zero(), rat.Zero()}); err == nil {
		t.Fatal("non-integer function accepted")
	}
	// p·∇g not integral.
	if _, err := New(rat.NewVec(rat.New(1, 3)), 2, []rat.R{rat.Zero(), rat.Zero()}); err == nil {
		t.Fatal("p∇g ∉ Z accepted")
	}
}

func TestTranslate(t *testing.T) {
	g := floor3x2(t)
	h := g.Translate(vec.New(5))
	for x := int64(0); x < 20; x++ {
		if h.Eval(vec.New(x)) != g.Eval(vec.New(x+5)) {
			t.Fatalf("translate wrong at %d", x)
		}
	}
	// Translation of fig3b in 2D.
	g2 := fig3b(t)
	h2 := g2.Translate(vec.New(2, 1))
	vec.Grid(vec.Zero(2), vec.Const(2, 7), func(x vec.V) bool {
		if h2.Eval(x) != g2.Eval(x.Add(vec.New(2, 1))) {
			t.Fatalf("2D translate wrong at %v", x)
		}
		return true
	})
}

func TestEqual(t *testing.T) {
	g := floor3x2(t)
	h := floor3x2(t)
	if !g.Equal(h) {
		t.Error("identical functions not equal")
	}
	k := MustNew(rat.NewVec(rat.FromInt(2)), 1, []rat.R{rat.Zero()})
	if g.Equal(k) {
		t.Error("distinct functions equal")
	}
}

func TestNonnegativeOn(t *testing.T) {
	// g(x) = x − 2 is negative near 0, nonnegative from 2.
	g := MustNew(rat.NewVec(rat.One()), 1, []rat.R{rat.FromInt(-2)})
	if g.NonnegativeOn(vec.New(0)) {
		t.Error("negative at origin not detected")
	}
	if !g.NonnegativeOn(vec.New(2)) {
		t.Error("nonnegative from 2 not detected")
	}
}

func TestMinEval(t *testing.T) {
	g1 := MustNew(rat.NewVec(rat.One(), rat.Zero()), 1, []rat.R{rat.One()}) // x1+1
	g2 := MustNew(rat.NewVec(rat.Zero(), rat.One()), 1, []rat.R{rat.One()}) // x2+1
	m, err := NewMin(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval(vec.New(3, 7)); got != 4 {
		t.Errorf("min = %d", got)
	}
	if _, err := NewMin(); err == nil {
		t.Error("empty min accepted")
	}
}

func TestFitEventually1D(t *testing.T) {
	tests := []struct {
		name         string
		f            Eval1D
		wantN, wantP int64
	}{
		{"affine", func(x int64) int64 { return 3*x + 1 }, 0, 1},
		{"floor3x2", func(x int64) int64 { return 3 * x / 2 }, 0, 2},
		{"step at 3", func(x int64) int64 {
			if x >= 3 {
				return 5
			}
			return 0
		}, 3, 1},
		{"period 3", func(x int64) int64 { return x / 3 }, 0, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n, p, deltas, err := FitEventually1D(tc.f, 16, 8, 120)
			if err != nil {
				t.Fatal(err)
			}
			if n > tc.wantN || p != tc.wantP {
				t.Errorf("fit (n=%d, p=%d), want (≤%d, %d)", n, p, tc.wantN, tc.wantP)
			}
			// Differences must reconstruct f beyond n.
			for x := n; x < 100; x++ {
				if tc.f(x+1)-tc.f(x) != deltas[x%p] {
					t.Fatalf("delta mismatch at %d", x)
				}
			}
		})
	}
}

func TestFitEventually1DRejectsDecreasing(t *testing.T) {
	if _, _, _, err := FitEventually1D(func(x int64) int64 { return 10 - min(x, 10) }, 8, 4, 0); err == nil {
		t.Fatal("decreasing function fit")
	}
}

func TestScalingGradient(t *testing.T) {
	g := floor3x2(t)
	if !g.ScalingGradient().Eq(rat.NewVec(rat.New(3, 2))) {
		t.Error("scaling gradient wrong")
	}
}
