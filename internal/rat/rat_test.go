package rat

import (
	"testing"
	"testing/quick"
)

func TestConstruction(t *testing.T) {
	tests := []struct {
		name     string
		r        R
		num, den int64
	}{
		{"reduced", New(2, 4), 1, 2},
		{"negative denominator", New(1, -2), -1, 2},
		{"double negative", New(-3, -6), 1, 2},
		{"integer", FromInt(7), 7, 1},
		{"zero", Zero(), 0, 1},
		{"zero value normalizes", R{}, 0, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.norm(); got.num != tc.num || got.den != tc.den {
				t.Errorf("got %d/%d, want %d/%d", got.num, got.den, tc.num, tc.den)
			}
		})
	}
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got := half.Add(third); !got.Eq(New(5, 6)) {
		t.Errorf("1/2+1/3 = %s", got)
	}
	if got := half.Sub(third); !got.Eq(New(1, 6)) {
		t.Errorf("1/2-1/3 = %s", got)
	}
	if got := half.Mul(third); !got.Eq(New(1, 6)) {
		t.Errorf("1/2*1/3 = %s", got)
	}
	if got := half.Div(third); !got.Eq(New(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %s", got)
	}
}

func TestFloorCeil(t *testing.T) {
	tests := []struct {
		r     R
		floor int64
	}{
		{New(7, 2), 3},
		{New(-7, 2), -4},
		{New(6, 2), 3},
		{New(-6, 2), -3},
		{Zero(), 0},
	}
	for _, tc := range tests {
		if got := tc.r.Floor(); got != tc.floor {
			t.Errorf("floor(%s) = %d, want %d", tc.r, got, tc.floor)
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	mk := func(a, b int16) R {
		den := int64(b)
		if den == 0 {
			den = 1
		}
		return New(int64(a), den)
	}
	if err := quick.Check(func(a1, b1, a2, b2, a3, b3 int16) bool {
		x, y, z := mk(a1, b1), mk(a2, b2), mk(a3, b3)
		// Associativity and commutativity of + and *; distributivity.
		if !x.Add(y).Eq(y.Add(x)) || !x.Mul(y).Eq(y.Mul(x)) {
			return false
		}
		if !x.Add(y).Add(z).Eq(x.Add(y.Add(z))) {
			return false
		}
		if !x.Mul(y).Mul(z).Eq(x.Mul(y.Mul(z))) {
			return false
		}
		return x.Mul(y.Add(z)).Eq(x.Mul(y).Add(x.Mul(z)))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestCmp(t *testing.T) {
	if New(1, 3).Cmp(New(1, 2)) != -1 {
		t.Error("1/3 < 1/2 expected")
	}
	if New(2, 4).Cmp(New(1, 2)) != 0 {
		t.Error("2/4 == 1/2 expected")
	}
	if FromInt(1).Cmp(New(99, 100)) != 1 {
		t.Error("1 > 99/100 expected")
	}
}

func TestIntPanicsOnFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on 1/2 should panic")
		}
	}()
	_ = New(1, 2).Int()
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero should panic")
		}
	}()
	_ = One().Div(Zero())
}

func TestLCMGCD(t *testing.T) {
	if got := LCM(4, 6); got != 12 {
		t.Errorf("LCM(4,6) = %d", got)
	}
	if got := GCD(12, 18); got != 6 {
		t.Errorf("GCD(12,18) = %d", got)
	}
	if got := GCD(0, 5); got != 5 {
		t.Errorf("GCD(0,5) = %d", got)
	}
}

func TestStringRendering(t *testing.T) {
	if got := New(3, 2).String(); got != "3/2" {
		t.Errorf("String = %q", got)
	}
	if got := FromInt(-4).String(); got != "-4" {
		t.Errorf("String = %q", got)
	}
}
