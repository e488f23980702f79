// Package randfunc generates random semilinear functions with prescribed
// structural properties (nondecreasing, superadditive, eventually
// quilt-affine), used to fuzz the Theorem 3.1 / Theorem 9.2 pipelines and
// the classifier far beyond the paper's worked examples.
package randfunc

import (
	"math/rand/v2"
)

// OneDim is a randomly generated eventually-quilt-affine f : N → N in
// explicit tabular + periodic form: values Table[0..n], then
// f(x+1) − f(x) = Deltas[(x−n) mod p] for x ≥ n.
type OneDim struct {
	Table  []int64 // f(0), ..., f(n); len ≥ 1
	Deltas []int64 // periodic differences beyond n; len = p ≥ 1
}

// Eval evaluates the function.
func (f *OneDim) Eval(x int64) int64 {
	n := int64(len(f.Table)) - 1
	if x <= n {
		return f.Table[x]
	}
	v := f.Table[n]
	p := int64(len(f.Deltas))
	full := (x - n) / p
	for _, d := range f.Deltas {
		v += full * d
	}
	for k := int64(0); k < (x-n)%p; k++ {
		v += f.Deltas[k]
	}
	return v
}

// Nondecreasing samples a random semilinear nondecreasing function:
// a random nondecreasing prefix table followed by random nonnegative
// periodic differences.
func Nondecreasing(rng *rand.Rand, maxN, maxP, maxDelta int64) *OneDim {
	n := rng.Int64N(maxN + 1)
	p := 1 + rng.Int64N(maxP)
	table := make([]int64, n+1)
	var v int64
	for i := range table {
		if i > 0 {
			v += rng.Int64N(maxDelta + 1)
		}
		table[i] = v
	}
	deltas := make([]int64, p)
	for i := range deltas {
		deltas[i] = rng.Int64N(maxDelta + 1)
	}
	return &OneDim{Table: table, Deltas: deltas}
}

// Superadditive samples a random semilinear superadditive function with
// f(0) = 0 by rejection: it draws nondecreasing candidates anchored at 0
// and keeps the first that passes an exact superadditivity check on the
// relevant range. The construction biases candidates toward superadditivity
// by making the periodic slope at least the largest early increment.
//
//crnlint:ignore unreached fuzz harness: the root fuzz_test.go draws its leaderless inputs from it
func Superadditive(rng *rand.Rand, maxN, maxP, maxDelta int64, checkLimit int64) *OneDim {
	for {
		f := Nondecreasing(rng, maxN, maxP, maxDelta)
		f.Table[0] = 0
		// Re-anchor: rebuild table increments from index 0.
		for i := 1; i < len(f.Table); i++ {
			if f.Table[i] < f.Table[i-1] {
				f.Table[i] = f.Table[i-1]
			}
		}
		if IsSuperadditive(f.Eval, checkLimit) {
			return f
		}
	}
}

// IsSuperadditive checks f(a) + f(b) ≤ f(a+b) exactly for all
// 0 ≤ a, b with a+b ≤ limit.
func IsSuperadditive(f func(int64) int64, limit int64) bool {
	for a := int64(0); a <= limit; a++ {
		fa := f(a)
		for b := a; a+b <= limit; b++ {
			if fa+f(b) > f(a+b) {
				return false
			}
		}
	}
	return true
}
