package serve

import (
	"math"
	"testing"
)

// FuzzResolveCheck pins resolveCheck's admission contract: a request it
// accepts has a grid of 1..maxGridPoints points, a budget of
// 1..MaxCheckConfigs configurations and a CRN within MaxCRNSpecies and
// MaxCRNReactions, and resolving its canonical form again yields the same
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
		{minCRNText, "min", 0, 1, true, MaxCheckConfigs},
		{minCRNText, "min", 0, 1, true, MaxCheckConfigs + 1},
		{minCRNText, "min", 0, 1, true, math.MaxInt},
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
		if j.cc.MaxConfigs < 1 || j.cc.MaxConfigs > MaxCheckConfigs {
			t.Fatalf("accepted maxconfigs %d", j.cc.MaxConfigs)
		}
		if n, r := j.c.NumSpecies(), j.c.NumReactions(); n > MaxCRNSpecies || r > MaxCRNReactions {
			t.Fatalf("accepted a CRN of %d species and %d reactions", n, r)
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

// FuzzResolveSimulate pins resolveSimulate's admission contract: a request
// it accepts runs 1..MaxSimTrials trials of 1..MaxSimMaxSteps steps with a
// nonnegative silence window, by a known method, on an input of the CRN's
// arity, and resolving its canonical form again yields the same content
// address. The classify and synthesize decode paths need no target of
// their own: each is one library-name lookup.
func FuzzResolveSimulate(f *testing.F) {
	for _, seed := range []struct {
		crn, method     string
		x1, x2          int64
		dim             int
		trials          int
		seed            uint64
		maxSteps, quiet int64
	}{
		{minCRNText, "", 5, 3, 2, 0, 0, 0, 0},
		{minCRNText, "fair", 5, 3, 2, 4, 1, 1000, 10},
		{minCRNText, "gillespie", 2, 2, 2, MaxSimTrials, 7, MaxSimMaxSteps, 0},
		{minCRNText, "fair", 1, 1, 2, MaxSimTrials + 1, 1, 0, 0},
		{minCRNText, "fair", 1, 1, 2, 1, 1, MaxSimMaxSteps + 1, 0},
		{minCRNText, "fair", 1, 1, 2, -3, 0, -5, -1},
		{minCRNText, "euler", 1, 1, 2, 1, 1, 1, 0},
		{minCRNText, "fair", 1, 1, 1, 1, 1, 1, 0},
		{minCRNText, "fair", -1, 1, 2, 1, 1, 1, 0},
		{sumCRNText, "fair", 0, 9, 2, 2, 3, 100, 5},
		{"#input X\n#output Y\nX -> 2Y\n", "fair", 4, 0, 1, 1, 1, 1, 0},
		{"#output Y\nX Y\n", "fair", 1, 1, 2, 1, 1, 1, 0},
	} {
		f.Add(seed.crn, seed.method, seed.x1, seed.x2, seed.dim, seed.trials, seed.seed, seed.maxSteps, seed.quiet)
	}
	f.Fuzz(func(t *testing.T, crnText, method string, x1, x2 int64, dim, trials int, seed uint64, maxSteps, quiet int64) {
		x := []int64{x1, x2}[:max(0, min(dim, 2))]
		req := SimulateRequest{CRN: crnText, X: x, Method: method, Trials: trials, Seed: seed, MaxSteps: maxSteps, SilentSteps: quiet}
		j, err := resolveSimulate(req)
		if err != nil {
			return
		}
		got := j.req
		if got.Trials < 1 || got.Trials > MaxSimTrials {
			t.Fatalf("accepted %d trials", got.Trials)
		}
		if got.MaxSteps < 1 || got.MaxSteps > MaxSimMaxSteps {
			t.Fatalf("accepted maxsteps %d", got.MaxSteps)
		}
		if got.SilentSteps < 0 {
			t.Fatalf("accepted silent steps %d", got.SilentSteps)
		}
		if got.Method != "fair" && got.Method != "gillespie" {
			t.Fatalf("accepted method %q", got.Method)
		}
		if len(got.X) != j.start.CRN().Dim() {
			t.Fatalf("accepted %d inputs for a CRN of dimension %d", len(got.X), j.start.CRN().Dim())
		}
		again, err := resolveSimulate(got)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if again.key != j.key {
			t.Fatalf("canonical form resolved to a different key")
		}
	})
}
