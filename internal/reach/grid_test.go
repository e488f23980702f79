package reach

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/crn"
)

// withClaimJitter installs a jitter hook that sleeps a pseudo-random few
// microseconds before every grid worker's input claim, so repeated runs
// hand the inputs to workers in genuinely different schedules. The hook is
// derived from an atomic counter, so it is race-free however many grid
// workers call it.
func withClaimJitter(t *testing.T, seed uint64, f func()) {
	t.Helper()
	var ctr atomic.Uint64
	testClaimJitter = func() {
		n := ctr.Add(1) + seed
		// SplitMix-style scramble; sleep 0–16µs.
		n = (n ^ (n >> 30)) * 0xBF58476D1CE4E5B9
		time.Sleep(time.Duration((n>>33)%16) * time.Microsecond)
	}
	defer func() { testClaimJitter = nil }()
	f()
}

// requireGridResultsIdentical asserts byte-level equality of everything a
// GridResult carries, including the failure verdict and its witness trace.
func requireGridResultsIdentical(t *testing.T, seq, par GridResult) {
	t.Helper()
	if seq.Checked != par.Checked || seq.Inconclusive != par.Inconclusive || seq.Explored != par.Explored {
		t.Fatalf("counts differ: sequential %d/%d/%d, parallel %d/%d/%d",
			seq.Checked, seq.Inconclusive, seq.Explored, par.Checked, par.Inconclusive, par.Explored)
	}
	if (seq.Failure == nil) != (par.Failure == nil) {
		t.Fatalf("failure presence differs: sequential %v, parallel %v", seq.Failure, par.Failure)
	}
	if seq.Failure == nil {
		return
	}
	sf, pf := seq.Failure, par.Failure
	if fmt.Sprint(sf.Input) != fmt.Sprint(pf.Input) || sf.Want != pf.Want {
		t.Fatalf("failure input differs: sequential %v want %d, parallel %v want %d", sf.Input, sf.Want, pf.Input, pf.Want)
	}
	sv, pv := sf.Verdict, pf.Verdict
	if sv.OK != pv.OK || sv.Inconclusive != pv.Inconclusive || sv.Explored != pv.Explored {
		t.Fatalf("failure verdict differs: sequential %+v, parallel %+v", sv, pv)
	}
	if (sv.Err == nil) != (pv.Err == nil) || (sv.Err != nil && sv.Err.Error() != pv.Err.Error()) {
		t.Fatalf("failure error differs: %v vs %v", sv.Err, pv.Err)
	}
	if (sv.Witness == nil) != (pv.Witness == nil) {
		t.Fatalf("witness presence differs")
	}
	if sv.Witness != nil {
		if fmt.Sprint(sv.Witness.Reactions) != fmt.Sprint(pv.Witness.Reactions) ||
			sv.Witness.Start.Key() != pv.Witness.Start.Key() {
			t.Fatalf("witness differs:\nsequential %v\nparallel   %v", sv.Witness, pv.Witness)
		}
	}
}

// gridCase is one CheckGrid scenario replayed across worker counts and
// claim schedules.
type gridCase struct {
	name string
	c    *crn.CRN
	f    Func
	lo   []int64
	hi   []int64
	opts []Option
}

func stealCases() []gridCase {
	minF := func(x []int64) int64 { return min(x[0], x[1]) }
	return []gridCase{
		// All-OK skewed grid: the (8,8) corner's state space dwarfs the
		// axis inputs, so small inputs finish out of grid order while a
		// large one is still running. 81 inputs also spans two enumeration
		// chunks.
		{"skew-ok", maxCRN(), func(x []int64) int64 { return max(x[0], x[1]) },
			[]int64{0, 0}, []int64{8, 8}, nil},
		// Mid-chunk failure: f is wrong at (3,1); every worker count and
		// claim schedule must report exactly that input with the same
		// witness, and identical counts for the prefix.
		{"mid-chunk-failure", minCRN(), func(x []int64) int64 {
			if x[0] == 3 && x[1] == 1 {
				return minF(x) + 1
			}
			return minF(x)
		}, []int64{0, 0}, []int64{5, 5}, nil},
		// Failure in a later chunk (the 10×10 grid spans two 64-input
		// chunks; (7,0) is input index 70).
		{"late-chunk-failure", minCRN(), func(x []int64) int64 {
			if x[0] == 7 && x[1] == 0 {
				return 9
			}
			return minF(x)
		}, []int64{0, 0}, []int64{9, 9}, nil},
		// MaxConfigs truncation: every x ≥ 1 input blows the budget
		// mid-level (the grower's BFS levels get wide) and must be counted
		// inconclusive — with identical Explored totals at any schedule,
		// which pins the exact truncation boundary under any schedule.
		{"truncation", growerCRN(), func(x []int64) int64 { return 0 },
			[]int64{0}, []int64{6}, []Option{WithMaxConfigs(2000)}},
	}
}

func TestCheckGridStealScheduleByteIdentical(t *testing.T) {
	for _, tc := range stealCases() {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := CheckGrid(tc.c, tc.f, tc.lo, tc.hi, append([]Option{WithWorkers(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				for jitterSeed := uint64(0); jitterSeed < 3; jitterSeed++ {
					withClaimJitter(t, jitterSeed, func() {
						par, err := CheckGrid(tc.c, tc.f, tc.lo, tc.hi, append([]Option{WithWorkers(workers)}, tc.opts...)...)
						if err != nil {
							t.Fatal(err)
						}
						requireGridResultsIdentical(t, seq, par)
					})
				}
			}
		})
	}
}

// TestStealPoolDrainTerminates exercises the grid workers' lifecycle edges:
// a single-job chunk with more workers than jobs, and an empty chunk.
func TestStealPoolDrainTerminates(t *testing.T) {
	// Single large input, many workers: one worker claims it and the others
	// find nothing to claim and exit cleanly.
	res, err := CheckGrid(branchyCRN(), func(x []int64) int64 { return 0 },
		[]int64{5, 5}, []int64{5, 5}, WithWorkers(8), WithMaxCount(3), WithMaxConfigs(1<<20))
	if err != nil || !res.OK() || res.Checked != 1 {
		t.Fatalf("single-input grid: %v %v", err, res)
	}
	// Empty job list (lo > hi still yields exactly one probe — the odometer
	// semantics — so use runGridJobs directly for the empty case).
	if v, _ := runGridJobs(nil, Options{Workers: 8}, nil); len(v) != 0 {
		t.Fatalf("empty chunk returned %d verdicts", len(v))
	}
}

// TestCheckGridStealMatchesSequentialStringOutput double-checks the
// user-visible rendering (crncheck prints GridResult.String and the witness
// schedule) is schedule-independent end to end.
func TestCheckGridStealMatchesSequentialStringOutput(t *testing.T) {
	// Constantly-zero f is wrong for min as soon as both inputs are
	// positive, and the refutation carries an overproduction witness.
	f := func(x []int64) int64 { return 0 }
	seq, err := CheckGrid(minCRN(), f, []int64{0, 0}, []int64{4, 4}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	withClaimJitter(t, 11, func() {
		par, err := CheckGrid(minCRN(), f, []int64{0, 0}, []int64{4, 4}, WithWorkers(6))
		if err != nil {
			t.Fatal(err)
		}
		if seq.String() != par.String() {
			t.Fatalf("String differs:\nsequential %s\nparallel   %s", seq, par)
		}
		if !strings.Contains(par.String(), "FAIL") {
			t.Fatalf("expected failure, got %s", par)
		}
		if seq.Failure.Verdict.Witness.String() != par.Failure.Verdict.Witness.String() {
			t.Fatal("witness schedule rendering differs")
		}
	})
}
