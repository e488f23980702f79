package randfunc

import (
	"math/rand/v2"
	"testing"
)

func TestEvalMatchesTableAndPeriod(t *testing.T) {
	f := &OneDim{Table: []int64{0, 2, 3}, Deltas: []int64{1, 4}}
	want := []int64{0, 2, 3, 4, 8, 9, 13, 14}
	for x, w := range want {
		if got := f.Eval(int64(x)); got != w {
			t.Errorf("f(%d) = %d, want %d", x, got, w)
		}
	}
}

func TestNondecreasingSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		f := Nondecreasing(rng, 6, 4, 3)
		for x := int64(0); x < 40; x++ {
			if f.Eval(x+1) < f.Eval(x) {
				t.Fatalf("trial %d: decreasing at %d", trial, x)
			}
		}
	}
}

func TestSuperadditiveSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		f := Superadditive(rng, 4, 3, 3, 30)
		if f.Eval(0) != 0 {
			t.Fatalf("trial %d: f(0) = %d", trial, f.Eval(0))
		}
		if !IsSuperadditive(f.Eval, 30) {
			t.Fatalf("trial %d: %v is not superadditive on [0, 30]", trial, f.Table)
		}
	}
}

func TestViolationFinder(t *testing.T) {
	// min(1, x) violates superadditivity at (1, 1).
	if IsSuperadditive(func(x int64) int64 { return min(1, x) }, 10) {
		t.Error("min(1, x) accepted as superadditive")
	}
	// identity has no violation.
	if !IsSuperadditive(func(x int64) int64 { return x }, 10) {
		t.Error("spurious violation for the identity")
	}
}
