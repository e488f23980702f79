package semilinear

import (
	"slices"
	"testing"
	"testing/quick"

	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

func TestLibraryValues(t *testing.T) {
	tests := []struct {
		name string
		f    *Func
		eval func(x vec.V) int64
		hi   int64
	}{
		{"min", Min2(), func(x vec.V) int64 { return min(x[0], x[1]) }, 9},
		{"max", Max2(), func(x vec.V) int64 { return max(x[0], x[1]) }, 9},
		{"fig7", Fig7(), func(x vec.V) int64 {
			switch {
			case x[0] < x[1]:
				return x[0] + 1
			case x[0] > x[1]:
				return x[1] + 1
			default:
				return x[0]
			}
		}, 9},
		{"eq2", Equation2(), func(x vec.V) int64 {
			if x[0] == x[1] {
				return x[0] + x[1]
			}
			return x[0] + x[1] + 1
		}, 9},
		{"fig4a", Fig4a(), func(x vec.V) int64 {
			return min(x[0]+x[1], min(2*x[0]+1, 2*x[1]+1))
		}, 9},
		{"sum+min", SumPlusMin(), func(x vec.V) int64 { return x[0] + x[1] + min(x[0], x[1]) }, 9},
		{"fig3b", Fig3b(), func(x vec.V) int64 {
			v := x[0] + 2*x[1]
			m := vec.New(x[0]%3, x[1]%3)
			if (m[0] == 1 && m[1] == 2) || (m[0] == 2 && m[1] == 2) || (m[0] == 2 && m[1] == 1) {
				v--
			}
			return v
		}, 9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.f.Dim()
			vec.Grid(vec.Zero(d), vec.Const(d, tc.hi), func(x vec.V) bool {
				if got, want := tc.f.Eval(x), tc.eval(x); got != want {
					t.Fatalf("%s(%v) = %d, want %d", tc.name, x, got, want)
					return false
				}
				return true
			})
		})
	}
}

func TestOneDimLibrary(t *testing.T) {
	tests := []struct {
		name string
		f    *Func
		eval func(x int64) int64
	}{
		{"id", Identity(), func(x int64) int64 { return x }},
		{"double", Double(), func(x int64) int64 { return 2 * x }},
		{"min1", MinConst1(), func(x int64) int64 { return min(1, x) }},
		{"floor3x2", FloorThreeHalves(), func(x int64) int64 { return 3 * x / 2 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for x := int64(0); x <= 40; x++ {
				if got, want := tc.f.Eval(vec.New(x)), tc.eval(x); got != want {
					t.Fatalf("%s(%d) = %d, want %d", tc.name, x, got, want)
				}
			}
		})
	}
}

func TestValidateOn(t *testing.T) {
	for _, f := range []*Func{Min2(), Max2(), Fig7(), Equation2(), Fig4a(), Fig3b(), SumPlusMin()} {
		if err := f.ValidateOn(vec.Zero(2), vec.Const(2, 10)); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
	// Overlapping domains detected.
	bad := MustNew(1, "overlap",
		Piece{Domain: True{D: 1}, Grad: Min2().Pieces[0].Grad[:1], Off: Min2().Pieces[0].Off},
		Piece{Domain: True{D: 1}, Grad: Min2().Pieces[0].Grad[:1], Off: Min2().Pieces[0].Off},
	)
	if err := bad.ValidateOn(vec.Zero(1), vec.New(3)); err == nil {
		t.Error("overlapping pieces accepted")
	}
}

func TestIsNondecreasing(t *testing.T) {
	ok, _, _ := Min2().IsNondecreasingOn(vec.Zero(2), vec.Const(2, 8))
	if !ok {
		t.Error("min should be nondecreasing")
	}
	// A decreasing function.
	ge2 := Threshold{A: vec.New(1), B: 2}
	dec := MustNew(1, "dec",
		Piece{Domain: ge2, Grad: Identity().Pieces[0].Grad, Off: Identity().Pieces[0].Off},
		Piece{Domain: Not{Op: ge2}, Grad: rat.ZeroVec(1), Off: MinConst1().Pieces[0].Off.Add(MinConst1().Pieces[0].Off).Add(MinConst1().Pieces[0].Off)},
	)
	ok, a, b := dec.IsNondecreasingOn(vec.Zero(1), vec.New(6))
	if ok {
		t.Error("decreasing function not detected")
	}
	if !a.Less(b) {
		t.Errorf("witness pair (%v, %v) not ordered", a, b)
	}
}

func TestRestrict(t *testing.T) {
	f := Min2()
	// min[x1→3](x2) = min(3, x2).
	r := f.Restrict(0, 3)
	if r.Dim() != 1 {
		t.Fatalf("restricted dim = %d", r.Dim())
	}
	for x := int64(0); x < 10; x++ {
		if got, want := r.Eval(vec.New(x)), min(int64(3), x); got != want {
			t.Errorf("min[x1→3](%d) = %d, want %d", x, got, want)
		}
	}
	// Restriction of the second input.
	r2 := f.Restrict(1, 2)
	for x := int64(0); x < 10; x++ {
		if got, want := r2.Eval(vec.New(x)), min(x, int64(2)); got != want {
			t.Errorf("min[x2→2](%d) = %d, want %d", x, got, want)
		}
	}
}

func TestRestrictMod(t *testing.T) {
	// fig3b[x2→1](x1) keeps the period-3 structure in x1.
	f := Fig3b()
	r := f.Restrict(1, 1)
	for x := int64(0); x < 12; x++ {
		want := f.Eval(vec.New(x, 1))
		if got := r.Eval(vec.New(x)); got != want {
			t.Errorf("restricted fig3b(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestRestrictProperty(t *testing.T) {
	// Property: f.Restrict(i, j).Eval(x') == f.Eval(insert(x', i, j)).
	f := Fig4a()
	err := quick.Check(func(i0 bool, j, x uint8) bool {
		i := 0
		if i0 {
			i = 1
		}
		jj, xx := int64(j%5), int64(x%12)
		return f.Restrict(i, jj).Eval(vec.New(xx)) == f.Eval(slices.Insert(vec.New(xx), i, jj))
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestAtomsAndPeriod(t *testing.T) {
	ts, ms := Fig3b().Atoms()
	if len(ts) != 0 || len(ms) == 0 {
		t.Errorf("fig3b atoms: %d thresholds, %d mods", len(ts), len(ms))
	}
	if p := Fig3b().GlobalPeriod(); p != 3 {
		t.Errorf("fig3b period = %d", p)
	}
	if p := Min2().GlobalPeriod(); p != 1 {
		t.Errorf("min period = %d", p)
	}
	ts, _ = Fig4a().Atoms()
	if len(ts) == 0 {
		t.Error("fig4a should have threshold atoms")
	}
}

func TestFormulaContains(t *testing.T) {
	th := Threshold{A: vec.New(2, -1), B: 3} // 2x1 − x2 ≥ 3
	if !th.Contains(vec.New(2, 1)) || th.Contains(vec.New(1, 0)) {
		t.Error("threshold membership wrong")
	}
	m := Mod{A: vec.New(1, 1), B: 2, C: 3} // x1+x2 ≡ 2 (mod 3)
	if !m.Contains(vec.New(1, 1)) || m.Contains(vec.New(1, 2)) {
		t.Error("mod membership wrong")
	}
	if !(And{Ops: []Formula{th, m}}).Contains(vec.New(5, 6)) {
		// 2·5−6 = 4 ≥ 3 and 11 ≡ 2 mod 3.
		t.Error("and membership wrong")
	}
	if (Or{Ops: []Formula{}}).Contains(vec.New(0, 0)) {
		t.Error("empty or should be false")
	}
	if !(And{Ops: []Formula{}}).Contains(vec.New(0, 0)) {
		t.Error("empty and should be true")
	}
	if !(Not{Op: th}).Contains(vec.New(0, 0)) {
		t.Error("not membership wrong")
	}
}

func TestSubstituteProperty(t *testing.T) {
	// Substitution commutes with membership: x' ∈ Sub(F, i, j) ⇔
	// insert(x', i, j) ∈ F.
	th := Threshold{A: vec.New(2, -3, 1), B: 4}
	m := Mod{A: vec.New(1, 2, 0), B: 1, C: 5}
	formula := And{Ops: []Formula{Or{Ops: []Formula{th, Not{Op: m}}}, m}}
	err := quick.Check(func(a, b uint8, i0 bool, j uint8) bool {
		x := vec.New(int64(a%9), int64(b%9))
		i := 0
		if i0 {
			i = 2
		}
		jj := int64(j % 6)
		sub := Substitute(formula, i, jj)
		return sub.Contains(x) == formula.Contains(slices.Insert(slices.Clone(x), i, jj))
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Error(err)
	}
}

func TestEvalPanicsOutsideDomains(t *testing.T) {
	f := MustNew(1, "partial", Piece{
		Domain: Threshold{A: vec.New(1), B: 5},
		Grad:   Identity().Pieces[0].Grad,
		Off:    Identity().Pieces[0].Off,
	})
	defer func() {
		if recover() == nil {
			t.Error("Eval outside all domains should panic")
		}
	}()
	f.Eval(vec.New(0))
}

func TestStringRendering(t *testing.T) {
	s := Fig7().String()
	if s == "" {
		t.Error("empty rendering")
	}
}
