package reach

import (
	"slices"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

// The explorer takes each head's applicable reactions and hash from its
// discovery record (succ.go). The naive exploration here shares neither: it
// is the Section 2.2 graph built the plain way, a FIFO BFS over string
// keys that tests ApplicableAt on every reaction at every head.

// naiveGraph is the reference exploration's result, in the explorer's id
// order.
type naiveGraph struct {
	rows              []vec.V
	succ, succOff     []int32
	parent, parentVia []int32
	complete          bool
}

// naiveExplore explores from root under the budgets of o the way the
// explorer defines: heads in FIFO order, each head's reactions in index
// order, a successor with a count over MaxCount skipped (the graph is then
// incomplete), and the exploration stopped before the first head that
// finds more than MaxConfigs configurations interned.
func naiveExplore(root crn.Config, o Options) naiveGraph {
	c := root.CRN()
	ids := make(map[string]int32)
	ng := naiveGraph{complete: true, succOff: []int32{0}}
	add := func(counts vec.V, parent, via int32) int32 {
		key := counts.Key()
		if id, ok := ids[key]; ok {
			return id
		}
		id := int32(len(ng.rows))
		ids[key] = id
		ng.rows = append(ng.rows, counts)
		ng.parent = append(ng.parent, parent)
		ng.parentVia = append(ng.parentVia, via)
		return id
	}
	add(root.CountsRef().Clone(), -1, -1)
	for head := 0; head < len(ng.rows); head++ {
		if len(ng.rows) > o.MaxConfigs {
			ng.complete = false
			break
		}
		cur := ng.rows[head]
		for ri := range c.NumReactions() {
			if !c.ApplicableAt(cur, ri) {
				continue
			}
			next := make(vec.V, len(cur))
			c.ApplyInto(next, cur, ri)
			if next.MaxComponent() > o.MaxCount {
				ng.complete = false
				continue
			}
			ng.succ = append(ng.succ, add(next, int32(head), int32(ri)))
		}
		ng.succOff = append(ng.succOff, int32(len(ng.succ)))
	}
	for len(ng.succOff) < len(ng.rows)+1 {
		ng.succOff = append(ng.succOff, int32(len(ng.succ)))
	}
	return ng
}

// requireExploreMatchesNaive explores root with opts at workers 1 and 2
// and requires both graphs to equal the naive exploration: rows in id
// order, Complete, the CSR edges and the BFS tree.
func requireExploreMatchesNaive(t *testing.T, root crn.Config, opts ...Option) {
	t.Helper()
	want := naiveExplore(root, buildOptions(opts))
	for _, workers := range []int{1, 2} {
		g := Explore(root, append(slices.Clone(opts), WithWorkers(workers))...)
		if g.Complete != want.complete {
			t.Fatalf("workers=%d: Complete = %v, naive %v", workers, g.Complete, want.complete)
		}
		if g.NumConfigs() != len(want.rows) {
			t.Fatalf("workers=%d: %d configurations, naive %d", workers, g.NumConfigs(), len(want.rows))
		}
		for id, row := range want.rows {
			if got := g.Counts(int32(id)); !slices.Equal(got, row) {
				t.Fatalf("workers=%d: configuration %d is %v, naive %v", workers, id, got, row)
			}
		}
		for name, pair := range map[string][2][]int32{
			"succ":      {g.succ, want.succ},
			"succOff":   {g.succOff, want.succOff},
			"parent":    {g.parent, want.parent},
			"parentVia": {g.parentVia, want.parentVia},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("workers=%d: %s differs:\nengine %v\nnaive  %v", workers, name, pair[0], pair[1])
			}
		}
	}
}

// deadReactions returns n padding reactions. Padding reaction i consumes
// deadSpecies, which no reaction makes, and one of fuzzSpecies, so it
// never fires from a root without deadSpecies, yet it is among the
// dependents of every reaction that changes that species and is re-tested
// whenever one fires.
func deadReactions(n int) []crn.Reaction {
	rs := make([]crn.Reaction, n)
	for i := range rs {
		rs[i] = crn.Reaction{
			Reactants: []crn.Term{{Coeff: 1, Sp: deadSpecies}, {Coeff: 1, Sp: fuzzSpecies[i%len(fuzzSpecies)]}},
			Products:  []crn.Term{{Coeff: 1, Sp: deadSpecies}},
		}
	}
	return rs
}

// paddedBranchyCRN is Branchy with its six reactions moved to indices
// 64-66 and 128-130 of 133, behind padding reactions, so its applicable
// sets span three words and every live reaction sits past a word boundary.
func paddedBranchyCRN() *crn.CRN {
	b := branchyCRN()
	rs := deadReactions(64)
	rs = append(rs, b.Reactions[:3]...)
	rs = append(rs, deadReactions(128-len(rs))...)
	rs = append(rs, b.Reactions[3:]...)
	rs = append(rs, deadReactions(2)...)
	return crn.MustNew(b.Inputs, b.Output, b.Leader, rs)
}

// overRootCRN lets a root above MaxCount shed count: 10X → Y brings X
// down, X → 2X pushes it back up.
func overRootCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 10, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}}},
	})
}

func TestExploreMatchesNaive(t *testing.T) {
	cases := append([]widenCase{
		{"branchy", branchyCRN().MustInitialConfig(vec.New(5, 5)), nil, 0},
		{"budget-100", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(100)}, 0},
		{"budget-0", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(0)}, 0},
		{"countcap", growerCRN().MustInitialConfig(vec.New(3)), []Option{WithMaxCount(40)}, 0},
		{"countcap-root-over", overRootCRN().MustInitialConfig(vec.New(45)), []Option{WithMaxCount(40)}, 0},
		{"padded-133-reactions", paddedBranchyCRN().MustInitialConfig(vec.New(5, 4)), nil, 0},
		{"padded-133-reactions-budget", paddedBranchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(150)}, 0},
	}, widenCases()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireExploreMatchesNaive(t, tc.root, tc.opts...)
		})
	}
}

// TestNaiveCasesReachTheirEdges pins what two of the cases above are for:
// the root over MaxCount has successors below it, and the padded CRN's
// explored configurations enable reactions on both sides of each word
// boundary.
func TestNaiveCasesReachTheirEdges(t *testing.T) {
	over := naiveExplore(overRootCRN().MustInitialConfig(vec.New(45)), buildOptions([]Option{WithMaxCount(40)}))
	if over.complete || len(over.rows) < 10 {
		t.Fatalf("root over MaxCount: complete %v with %d configurations, want incomplete with at least 10", over.complete, len(over.rows))
	}
	c := paddedBranchyCRN()
	padded := naiveExplore(c.MustInitialConfig(vec.New(5, 4)), buildOptions(nil))
	for _, ri := range []int{64, 65, 66, 128, 129, 130} {
		if !slices.ContainsFunc(padded.rows, func(row vec.V) bool { return c.ApplicableAt(row, ri) }) {
			t.Fatalf("padded CRN: reaction %d never applicable", ri)
		}
	}
}
