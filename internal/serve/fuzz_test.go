package serve

import (
	"math"
	"testing"
)

// FuzzResolveCheck pins resolveCheck's admission contract: a request it
// accepts has a grid of 1..maxGridPoints points and a budget of at least
// one configuration, and resolving its canonical form again yields the same
// content address.
func FuzzResolveCheck(f *testing.F) {
	for _, seed := range []struct {
		crn, fn    string
		lo, hi     int64
		hasHi      bool
		maxConfigs int
	}{
		{minCRNText, "min", 0, 3, false, 0},
		{minCRNText, "min", 0, 1, true, 1 << 10},
		{sumCRNText, "min", 1, 2, true, 0},
		{minCRNText, "min", 5, 3, true, 0},
		{minCRNText, "min", 0, 3_037_000_500, true, 0},
		{minCRNText, "min", 0, math.MaxInt64, true, 0},
		{minCRNText, "min", 0, 65_535, true, 0},
		{minCRNText, "min", -1, 3, true, 0},
		{minCRNText, "min", 0, 3, true, -1},
		{minCRNText, "max", 0, 2, true, 0},
		{"#input X\n#output Y\nX -> 2Y\n", "double", 0, 8, true, 0},
		{minCRNText, "double", 0, 3, false, 0},
		{"#output Y\nX Y\n", "min", 0, 3, false, 0},
	} {
		f.Add(seed.crn, seed.fn, seed.lo, seed.hi, seed.hasHi, seed.maxConfigs)
	}
	f.Fuzz(func(t *testing.T, crnText, fn string, lo, hi int64, hasHi bool, maxConfigs int) {
		req := CheckRequest{CRN: crnText, Func: fn, Lo: lo, MaxConfigs: maxConfigs}
		if hasHi {
			req.Hi = &hi
		}
		j, err := resolveCheck(req)
		if err != nil {
			return
		}
		if j.points < 1 || j.points > maxGridPoints {
			t.Fatalf("accepted a grid of %d points (%v..%v)", j.points, j.cc.Lo, j.cc.Hi)
		}
		if j.cc.MaxConfigs < 1 {
			t.Fatalf("accepted maxconfigs %d", j.cc.MaxConfigs)
		}
		again, err := resolveCheck(CheckRequest{CRN: j.cc.CRN, Func: fn, Lo: lo, Hi: &j.cc.Hi[0], MaxConfigs: j.cc.MaxConfigs})
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if again.key != j.key {
			t.Fatalf("canonical form resolved to a different key")
		}
	})
}
