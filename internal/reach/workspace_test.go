package reach

import (
	"runtime"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

// usedWorkspace returns a workspace for root's CRN in which three
// explorations have already run: a larger one (every count of root plus 2,
// under twice o's count cap), one whose root needs two bytes per count
// (count 0 plus 300), and one of root that its budget cuts after 7
// configurations. Their rows, records, table slots and arrays stay in the
// buffers the next exploration reuses. It returns the number of
// configurations the larger exploration found.
func usedWorkspace(t *testing.T, root crn.Config, o Options) (*workspace, int) {
	t.Helper()
	c := root.CRN()
	ws := newWorkspace(c)
	larger, wider := root.CountsRef().Clone(), root.CountsRef().Clone()
	for i := range larger {
		larger[i] += 2
	}
	wider[0] += 300
	var largest int
	for i, run := range []struct {
		counts   vec.V
		budget   int
		maxCount int64
	}{{larger, 1 << 14, 2 * o.MaxCount}, {wider, 1 << 12, o.MaxCount}, {root.CountsRef(), 7, o.MaxCount}} {
		ro := o
		ro.MaxConfigs, ro.MaxCount = run.budget, run.maxCount
		g, err := explore(ws, c.DenseConfig(run.counts), ro)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			largest = g.NumConfigs()
		}
	}
	return ws, largest
}

// sumCRN computes x1 + x2: X1 → Y, X2 → Y. From (x1, x2) it reaches
// (x1+1)(x2+1) configurations, and its output passes 255 once
// x1 + x2 does.
func sumCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

// TestCheckGridMatchesFreshCheckInput checks a grid in which every worker
// reuses one workspace against a fresh CheckInput per input: each input's
// verdict, explored count and witness, and the grid result they fold to.
// On sumCRN over [250,260]×[0,3] with a budget of 1000:
//   - roots below 256 start at one byte per count, and those whose sum
//     reaches 256 widen mid-exploration, so the next input starts narrow
//     in widened chunks; roots from 256 on start at two bytes;
//   - every x2 = 3 input outgrows the budget and is inconclusive;
//   - f undershoots at (260,1), so the check ends there with an
//     overproduction witness, after inputs with more configurations:
//     (259,2), verified, and (259,3), cut by the budget.
func TestCheckGridMatchesFreshCheckInput(t *testing.T) {
	c := sumCRN()
	f := func(x []int64) int64 {
		if x[0] == 260 && x[1] == 1 {
			return 260
		}
		return x[0] + x[1]
	}
	lo, hi := []int64{250, 0}, []int64{260, 3}
	opts := []Option{WithMaxConfigs(1000)}
	var jobs []gridJob
	var fresh []Verdict
	var want GridResult
	for x1 := lo[0]; x1 <= hi[0] && want.OK(); x1++ {
		for x2 := lo[1]; x2 <= hi[1] && want.OK(); x2++ {
			x := []int64{x1, x2}
			job := gridJob{x: x, root: c.MustInitialConfig(vec.New(x...)), want: f(x)}
			v := CheckInput(job.root, job.want, opts...)
			jobs, fresh = append(jobs, job), append(fresh, v)
			want.Fold(job.result(v))
		}
	}
	if want.Inconclusive != 10 || want.Failure == nil || want.Failure.Verdict.Witness == nil ||
		jobs[len(jobs)-1].x[0] != 260 || jobs[len(jobs)-1].x[1] != 1 {
		t.Fatalf("fresh checks: %d inconclusive, failure %v; want 10 inconclusive and a witnessed failure at (260,1)",
			want.Inconclusive, want.Failure)
	}
	for _, workers := range []int{1, 2} {
		o := buildOptions(append(opts, WithWorkers(workers)))
		wss := []*workspace{newWorkspace(c), newWorkspace(c)}
		verdicts, err := runGridJobs(jobs, o, wss)
		if err != nil {
			t.Fatal(err)
		}
		for i, job := range jobs {
			requireGridResultsIdentical(t, job.result(fresh[i]), job.result(verdicts[i]))
		}
		got, err := CheckGrid(c, f, lo, hi, append(opts, WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		requireGridResultsIdentical(t, want, got)
	}
}

// TestCheckGridBranchyAllocs pins what a grid check allocates: each worker
// reuses one workspace across the inputs of a CheckGrid call, so the
// Branchy [0,10]^2 grid (121 inputs, 107,393 configurations) allocates
// buffers sized by its largest inputs, not a fresh exploration per input.
func TestCheckGridBranchyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxBytesPerConfig = 48
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := CheckGrid(branchyCRN(), func(x []int64) int64 { return max(x[0], x[1]) },
		[]int64{0, 0}, []int64{10, 10}, WithWorkers(2))
	runtime.ReadMemStats(&after)
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
	if perConfig := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Explored); perConfig > maxBytesPerConfig {
		t.Errorf("Branchy [0,10]^2 grid: %.1f B per configuration over %d configurations, want at most %d",
			perConfig, res.Explored, maxBytesPerConfig)
	}
}
