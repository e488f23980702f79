package quilt

import "fmt"

// Eval1D is a one-dimensional integer function.
type Eval1D func(x int64) int64

// FitEventually1D finds the eventually quilt-affine structure of a
// semilinear nondecreasing f : N -> N as used by Theorem 3.1 and Fig 5:
// an index n, a period p, and finite differences δ_0..δ_{p-1} such that
// f(x+1)-f(x) = δ_{x mod p} for all x ≥ n. It searches n ≤ maxN and
// p ≤ maxP and verifies the candidate on [n, horizon]. The returned
// structure is exact for genuinely eventually-quilt-affine f whose
// parameters fall within the search bounds and whose pattern is visible
// within the horizon.
func FitEventually1D(f Eval1D, maxN, maxP, horizon int64) (n, p int64, deltas []int64, err error) {
	if horizon < maxN+3*maxP {
		horizon = maxN + 3*maxP
	}
	diffs := make([]int64, horizon)
	for x := int64(0); x < horizon; x++ {
		d := f(x+1) - f(x)
		if d < 0 {
			return 0, 0, nil, fmt.Errorf("quilt: f is decreasing at x=%d (Δ=%d)", x, d)
		}
		diffs[x] = d
	}
	for n = 0; n <= maxN; n++ {
		for p = 1; p <= maxP; p++ {
			ok := true
			for x := n; x+p < horizon; x++ {
				if diffs[x] != diffs[x+p] {
					ok = false
					break
				}
			}
			if ok {
				deltas = make([]int64, p)
				for a := int64(0); a < p; a++ {
					// δ_a is the difference at any x ≥ n with x ≡ a (mod p).
					x := n + ((a-n)%p+p)%p
					deltas[a] = diffs[x]
				}
				return n, p, deltas, nil
			}
		}
	}
	return 0, 0, nil, fmt.Errorf("quilt: no eventually-quilt-affine structure found with n ≤ %d, p ≤ %d", maxN, maxP)
}
