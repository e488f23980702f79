package scaling

import (
	"math"
	"testing"

	"crncompose/internal/classify"
	"crncompose/internal/quilt"
	"crncompose/internal/rat"
	"crncompose/internal/semilinear"
	"crncompose/internal/vec"
)

func fig4aMin(t *testing.T) (*quilt.Min, Func) {
	t.Helper()
	f := semilinear.Fig4a()
	res, err := classify.Analyze(f, classify.Options{})
	if err != nil || !res.Computable {
		t.Fatalf("fig4a: %v", err)
	}
	return res.EventualMin, func(x vec.V) int64 { return f.Eval(x) }
}

func TestExactOnPositive(t *testing.T) {
	m, _ := fig4aMin(t)
	// f̂(z) = min(z1+z2, 2z1, 2z2) (offsets vanish).
	tests := []struct {
		z    rat.Vec
		want rat.R
	}{
		{rat.NewVec(rat.One(), rat.One()), rat.FromInt(2)},
		{rat.NewVec(rat.One(), rat.FromInt(5)), rat.FromInt(2)},
		{rat.NewVec(rat.New(1, 2), rat.FromInt(3)), rat.One()},
	}
	for _, tc := range tests {
		got, err := ExactOnPositive(m, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Eq(tc.want) {
			t.Errorf("f̂(%s) = %s, want %s", tc.z, got, tc.want)
		}
	}
	// Nonpositive input rejected.
	if _, err := ExactOnPositive(m, rat.NewVec(rat.Zero(), rat.One())); err == nil {
		t.Error("z with zero component accepted")
	}
}

func TestNumericLimitConvergesToExact(t *testing.T) {
	m, f := fig4aMin(t)
	zs := []rat.Vec{
		rat.NewVec(rat.One(), rat.One()),
		rat.NewVec(rat.New(3, 2), rat.New(1, 2)),
		rat.NewVec(rat.FromInt(2), rat.New(5, 3)),
	}
	for _, z := range zs {
		rep, err := Compare(f, m, z, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AbsErr > 0.01 {
			t.Errorf("f̂(%s): estimate %.5f vs exact %.5f (err %.5f)", z, rep.Estimate, rep.Exact, rep.AbsErr)
		}
	}
}

func TestLimitConvergence(t *testing.T) {
	_, f := fig4aMin(t)
	z := rat.NewVec(rat.One(), rat.One())
	v := Estimate(f, z, 4096)
	delta := v - Estimate(f, z, 1024)
	if math.Abs(v-2.0) > 0.01 {
		t.Errorf("limit = %f, want ≈ 2", v)
	}
	if math.Abs(delta) > 0.01 {
		t.Errorf("limit not converged: last delta %f", delta)
	}
}

func TestPeriodicOffsetVanishes(t *testing.T) {
	// ⌊3x/2⌋ scales to (3/2)z despite the period-2 offset.
	f := semilinear.FloorThreeHalves()
	res, err := classify.Analyze(f, classify.Options{})
	if err != nil || !res.Computable {
		t.Fatal(err)
	}
	eval := func(x vec.V) int64 { return f.Eval(x) }
	got, err := ExactOnPositive(res.EventualMin, rat.NewVec(rat.FromInt(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Eq(rat.FromInt(3)) {
		t.Errorf("f̂(2) = %s, want 3", got)
	}
	est := Estimate(eval, rat.NewVec(rat.FromInt(2)), 1000)
	if math.Abs(est-3.0) > 0.01 {
		t.Errorf("estimate = %f", est)
	}
}

func TestSuperadditivity(t *testing.T) {
	// Theorem 8.2: scalings of obliviously-computable functions are
	// superadditive.
	for _, f := range []*semilinear.Func{semilinear.Fig4a(), semilinear.Min2(), semilinear.Fig7()} {
		res, err := classify.Analyze(f, classify.Options{})
		if err != nil || !res.Computable {
			t.Fatalf("%s: %v", f.Name, err)
		}
		bad, err := CheckSuperadditive(res.EventualMin, 4)
		if err != nil {
			t.Fatal(err)
		}
		if bad != nil {
			t.Errorf("%s scaling not superadditive at %v", f.Name, bad)
		}
	}
}

func TestEstimateAtZeroScalePoints(t *testing.T) {
	_, f := fig4aMin(t)
	// Estimate is exact for integer points at scale 1 times value.
	got := Estimate(f, rat.NewVec(rat.FromInt(3), rat.FromInt(4)), 1)
	if got != float64(f(vec.New(3, 4))) {
		t.Errorf("estimate at c=1 = %f", got)
	}
}
