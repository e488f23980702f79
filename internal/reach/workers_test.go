package reach

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"crncompose/internal/benchcrn"
	"crncompose/internal/crn"
	"crncompose/internal/parse"
	"crncompose/internal/vec"
)

// The worker budget parallelizes CheckGrid across inputs and never reaches
// an exploration, so a graph is the same at every worker count by
// construction. The tests here pin that contract from the outside: every
// array a graph holds, and every verdict and witness, at worker counts
// from 1 to 12.

// requireGraphsIdentical asserts byte-identity of every array two graphs
// hold — the contract that makes verdicts and witness replay independent
// of the worker count.
func requireGraphsIdentical(t *testing.T, seq, par *Graph) {
	t.Helper()
	if seq.Complete != par.Complete {
		t.Fatalf("Complete: sequential %v, parallel %v", seq.Complete, par.Complete)
	}
	if seq.d != par.d || seq.outIdx != par.outIdx {
		t.Fatalf("d/outIdx: sequential %d/%d, parallel %d/%d", seq.d, seq.outIdx, par.d, par.outIdx)
	}
	for name, pair := range map[string][2][]int32{
		"succ":      {seq.succ, par.succ},
		"succOff":   {seq.succOff, par.succOff},
		"parent":    {seq.parent, par.parent},
		"parentVia": {seq.parentVia, par.parentVia},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("%s differs:\nsequential %v\nparallel   %v", name, pair[0], pair[1])
		}
	}
	if seq.w != par.w {
		t.Fatalf("row width: sequential %d, parallel %d", seq.w, par.w)
	}
	for id := range int32(seq.NumConfigs()) {
		if !bytes.Equal(seq.row(id), par.row(id)) {
			t.Fatalf("row %d differs: sequential %x, parallel %x", id, seq.row(id), par.row(id))
		}
	}
}

// branchyCRN (benchcrn.Branchy) has interleaving independent reactions, so
// BFS levels get wide and configurations are rediscovered from many
// parents; it also stably computes max(x1, x2), which the steal-schedule
// grid tests (grid_test.go) rely on.
func branchyCRN() *crn.CRN { return benchcrn.Branchy() }

func TestExploreParallelByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		root crn.Config
		opts []Option
	}{
		{"min", minCRN().MustInitialConfig(vec.New(4, 3)), nil},
		{"max", maxCRN().MustInitialConfig(vec.New(5, 4)), nil},
		{"branchy", branchyCRN().MustInitialConfig(vec.New(5, 5)), nil},
		{"branchy-large", branchyCRN().MustInitialConfig(vec.New(8, 8)), nil},
		// Budget cuts must land on the same head boundary.
		{"budget-1", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(1)}},
		{"budget-17", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(17)}},
		{"budget-100", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(100)}},
		{"budget-0", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(0)}},
		// Count caps skip individual successors mid-level.
		{"countcap", growerCRN().MustInitialConfig(vec.New(3)), []Option{WithMaxCount(40)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := Explore(tc.root, append(slices.Clone(tc.opts), WithWorkers(1))...)
			for _, workers := range []int{2, 3, 8} {
				par := Explore(tc.root, append(slices.Clone(tc.opts), WithWorkers(workers))...)
				requireGraphsIdentical(t, seq, par)
			}
		})
	}
	for _, wc := range widenCases() {
		t.Run(wc.name, func(t *testing.T) {
			seq := Explore(wc.root, append(slices.Clone(wc.opts), WithWorkers(1))...)
			if seq.w != wc.w {
				t.Fatalf("graph stores %d bytes per count, want %d", seq.w, wc.w)
			}
			for _, workers := range []int{2, 3, 8} {
				par := Explore(wc.root, append(slices.Clone(wc.opts), WithWorkers(workers))...)
				requireGraphsIdentical(t, seq, par)
			}
		})
	}
}

// widenCase is an exploration that exercises row widening, with the bytes
// per count its graph must end at.
type widenCase struct {
	name string
	root crn.Config
	opts []Option
	w    int
}

func widenCases() []widenCase {
	return []widenCase{
		// Counts cross 255 and then 65,535 mid-exploration.
		{"widen-1-2-4", burstCRN().MustInitialConfig(vec.New(70)), nil, 4},
		// The root alone needs two bytes per count.
		{"wide-root", growerCRN().MustInitialConfig(vec.New(300)), []Option{WithMaxCount(1 << 20), WithMaxConfigs(5000)}, 2},
		// The only row needing two bytes lies past the cut: the graph's
		// width comes from its own rows.
		{"widen-then-cut", cutWideCRN().MustInitialConfig(vec.New(255, 1, 1)), []Option{WithMaxConfigs(3)}, 1},
	}
}

func growerCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}}},
		{Reactants: []crn.Term{{Coeff: 2, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "X"}, {Coeff: 1, Sp: "Y"}}},
	})
}

// burstCRN turns each A into 1000 X or 1000 Y, so from A=70 its BFS
// crosses a count of 255 at level 1 and 65,535 at level 66, over ~2.6k
// configurations.
func burstCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"A"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1000, Sp: "X"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1000, Sp: "Y"}}},
	})
}

// cutWideCRN, from the input (X, A, B) = (255, 1, 1), has level
// 1 = {a: A→C, b: B→D}; level 2 holds c (from a and b, all counts ≤ 255)
// and, from b only, w with X = 256. A budget of 3 expands a and cuts
// before b, so the explorer never interns w and the graph stays at one
// byte per count.
func cutWideCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X", "A", "B"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1, Sp: "C"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "B"}}, Products: []crn.Term{{Coeff: 1, Sp: "D"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "D"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "D"}, {Coeff: 2, Sp: "X"}}},
	})
}

func TestCheckInputParallelWitnessIdentical(t *testing.T) {
	// A refuted check must report the identical error and witness trace at
	// any worker count (the witness is extracted from graph ids, so this is
	// the end-to-end consequence of byte-identity).
	racy := crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
	})
	root := racy.MustInitialConfig(vec.New(3, 3))
	seq := CheckInput(root, 3, WithWorkers(1))
	if seq.OK || seq.Witness == nil {
		t.Fatalf("sequential check unexpectedly passed: %+v", seq)
	}
	for _, workers := range []int{2, 4, 8} {
		par := CheckInput(root, 3, WithWorkers(workers))
		if par.OK || par.Witness == nil {
			t.Fatalf("workers=%d: check unexpectedly passed: %+v", workers, par)
		}
		if par.Err.Error() != seq.Err.Error() {
			t.Fatalf("workers=%d: error %q, sequential %q", workers, par.Err, seq.Err)
		}
		if par.Explored != seq.Explored {
			t.Fatalf("workers=%d: explored %d, sequential %d", workers, par.Explored, seq.Explored)
		}
		if !slices.Equal(par.Witness.Reactions, seq.Witness.Reactions) {
			t.Fatalf("workers=%d: witness %v, sequential %v", workers, par.Witness.Reactions, seq.Witness.Reactions)
		}
		if _, err := par.Witness.Replay(); err != nil {
			t.Fatalf("workers=%d: witness does not replay: %v", workers, err)
		}
	}
}

func TestChunkedArenaRowsStableAcrossGrowth(t *testing.T) {
	// Rows handed out before growth must remain valid and unchanged after
	// the arena adds chunks, and every row must decode to the same counts,
	// and keep its record, after each widening.
	const d, nw = 2, 2
	a := newChunkedArena(d, 1, nw)
	chunkRows := a.mask + 1
	want := func(id int32) []int64 { return []int64{int64(id) % 256, 255 - int64(id)%256} }
	wantRec := func(id int32) []uint64 { return []uint64{uint64(id), uint64(id) << 32, ^uint64(id)} }
	record := func(id int32) []uint64 {
		h, set := a.record(id)
		return append([]uint64{*h}, set...)
	}
	put := func(id int32) {
		packed := make([]byte, d*a.w)
		if !packRow(packed, want(id), a.w) {
			t.Fatalf("row %d does not fit width %d", id, a.w)
		}
		a.write(id, packed)
		h, set := a.record(id)
		*h = wantRec(id)[0]
		copy(set, wantRec(id)[1:])
	}
	put(0)
	held := a.row(0)
	early := slices.Clone(held)
	for id := int32(1); id < 3*chunkRows; id++ {
		put(id)
	}
	if !bytes.Equal(held, early) {
		t.Fatalf("early row changed after growth: %v", held)
	}
	got := make([]int64, d)
	for _, w := range []int{1, 2, 4, 8} {
		if w > a.w {
			a.widen(w)
		}
		for id := int32(0); id < 3*chunkRows; id += chunkRows / 3 {
			if unpackRow(got, a.row(id), a.w); !slices.Equal(got, want(id)) {
				t.Fatalf("width %d: row %d = %v, want %v", w, id, got, want(id))
			}
			if !slices.Equal(record(id), wantRec(id)) {
				t.Fatalf("width %d: record %d = %v, want %v", w, id, record(id), wantRec(id))
			}
		}
	}
	// And a wide-row arena must pick a small chunk so tiny explorations of
	// wide-species CRNs don't allocate megabytes up front.
	wide := newChunkedArena(200, 8, nw)
	if rows := int(wide.mask) + 1; rows*(200+8+8*nw) > 2*targetChunkBytes {
		t.Fatalf("chunk for d=200 is %d rows (%d bytes at width 1)", rows, rows*(200+8+8*nw))
	}
}

func TestExploreWorkerSweepAgainstBaseline(t *testing.T) {
	// Cross-check a mid-size graph across a sweep of worker counts, and
	// rebuild its edges from its rows.
	root := branchyCRN().MustInitialConfig(vec.New(4, 6))
	seq := Explore(root, WithWorkers(1))
	for workers := 2; workers <= 12; workers++ {
		par := Explore(root, WithWorkers(workers))
		requireGraphsIdentical(t, seq, par)
	}
	requireSuccFromRows(t, seq)
}

func TestCheckGridPoolWidthExtremes(t *testing.T) {
	// A one-input grid with a large worker budget must still verify
	// correctly (all but one worker find no input to claim), as must a
	// grid wide enough that every worker claims inputs.
	for _, bounds := range [][2]int64{{0, 0}, {0, 3}} {
		res, err := CheckGrid(minCRN(), func(x []int64) int64 { return min(x[0], x[1]) },
			[]int64{bounds[0], bounds[0]}, []int64{bounds[1], bounds[1]}, WithWorkers(8))
		if err != nil || !res.OK() {
			t.Fatalf("bounds %v: %v %v", bounds, err, res)
		}
		want := (bounds[1] - bounds[0] + 1) * (bounds[1] - bounds[0] + 1)
		if int64(res.Checked) != want {
			t.Fatalf("bounds %v: checked %d, want %d", bounds, res.Checked, want)
		}
	}
}

func TestExploreParallelLargeGridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large equivalence sweep skipped in -short")
	}
	// Larger inputs: tens of thousands of configurations with wide levels.
	root := branchyCRN().MustInitialConfig(vec.New(12, 12))
	seq := Explore(root, WithWorkers(1))
	if seq.NumConfigs() < 10_000 {
		t.Fatalf("test CRN too small to be interesting: %d configs", seq.NumConfigs())
	}
	for _, workers := range []int{2, 8} {
		requireGraphsIdentical(t, seq, Explore(root, WithWorkers(workers)))
	}
}

func TestExploreBudgetSweepByteIdentical(t *testing.T) {
	// Every budget value from 0 to the full graph size must cut at the same
	// boundary at every worker count — this pins the exact mid-level
	// truncation semantics, not just the easy full-graph case.
	root := branchyCRN().MustInitialConfig(vec.New(3, 3))
	full := Explore(root, WithWorkers(1))
	n := full.NumConfigs()
	for budget := 0; budget <= n+1; budget += max(1, n/37) {
		seq := Explore(root, WithWorkers(1), WithMaxConfigs(budget))
		par := Explore(root, WithWorkers(4), WithMaxConfigs(budget))
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			requireGraphsIdentical(t, seq, par)
		})
	}
}

// TestCheckGridBuildsIndexOnFirstUse runs CheckGrid at two workers on a CRN
// fresh from parse.Parse, whose species table and compiled rows crn.New no
// longer builds: the grid's first initial configuration builds them, and
// the workers then read the rows through ApplicableAt and ApplyInto. Under
// -race this pins that the lazy build happens before every worker's read.
// The result must equal the sequential check's on a CRN built beforehand.
func TestCheckGridBuildsIndexOnFirstUse(t *testing.T) {
	const src = "#input X1 X2\n#output Y\n#leader L\nX1 + X2 -> Y\nL + Y -> L + Y\n"
	minF := func(x []int64) int64 { return min(x[0], x[1]) }
	fresh, err := parse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckGrid(fresh, minF, []int64{0, 0}, []int64{4, 4}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	built, err := parse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	built.NumSpecies()
	want, err := CheckGrid(built, minF, []int64{0, 0}, []int64{4, 4}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := MarshalGridResultIndent(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := MarshalGridResultIndent(want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK() || !bytes.Equal(gb, wb) {
		t.Fatalf("two workers on a fresh CRN:\n%s\nsequential on a built one:\n%s", gb, wb)
	}
}
