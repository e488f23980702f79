package reach

import (
	"slices"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

// The verdict pass (condense) replaced three passes over a reversed graph:
// a predecessor CSR, a worklist fixpoint for every configuration's
// reachable output bounds, and the backward closure of the correct stable
// configurations. They are kept here, outside the engine, as the reference
// the one pass must agree with.

// referencePred derives the predecessor CSR from the successor CSR: count
// in-degrees, prefix-sum, then fill in source order. One entry per in-edge,
// not deduplicated.
func referencePred(g *Graph) (pred, predOff []int32) {
	n := g.NumConfigs()
	predOff = make([]int32, n+1)
	for _, v := range g.succ {
		predOff[v+1]++
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	pred = make([]int32, len(g.succ))
	fill := slices.Clone(predOff[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(int32(u)) {
			pred[fill[v]] = int32(u)
			fill[v]++
		}
	}
	return pred, predOff
}

// referenceVerdict returns, per configuration, whether it is stable (its
// reachable output bounds meet) and whether it can reach a stable
// configuration with output want.
func referenceVerdict(g *Graph, want int64) (stable, can []bool) {
	pred, predOff := referencePred(g)
	preds := func(v int32) []int32 { return pred[predOff[v]:predOff[v+1]] }
	n := g.NumConfigs()

	// Worklist fixpoint: when a node's bounds widen, its predecessors may
	// widen too.
	minY, maxY := make([]int64, n), make([]int64, n)
	queue := make([]int32, 0, n)
	inQueue := make([]bool, n)
	for i := 0; i < n; i++ {
		minY[i], maxY[i] = g.Output(int32(i)), g.Output(int32(i))
		queue = append(queue, int32(i))
		inQueue[i] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for _, p := range preds(u) {
			changed := false
			if minY[u] < minY[p] {
				minY[p], changed = minY[u], true
			}
			if maxY[u] > maxY[p] {
				maxY[p], changed = maxY[u], true
			}
			if changed && !inQueue[p] {
				queue = append(queue, p)
				inQueue[p] = true
			}
		}
	}

	// Backward closure of the correct stable configurations.
	stable, can = make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		stable[i] = minY[i] == maxY[i]
		if stable[i] && g.Output(int32(i)) == want {
			can[i] = true
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range preds(u) {
			if !can[p] {
				can[p] = true
				queue = append(queue, p)
			}
		}
	}
	return stable, can
}

// verdictWants are the outputs the verdict pass is compared at on g: every
// output g holds, one past the largest, and -1, which no configuration
// holds.
func verdictWants(g *Graph) []int64 {
	wants := []int64{-1}
	for i := 0; i < g.NumConfigs(); i++ {
		if y := g.Output(int32(i)); !slices.Contains(wants, y) {
			wants = append(wants, y)
		}
	}
	return append(wants, slices.Max(wants)+1)
}

// requireVerdictMatchesReference asserts that the verdict pass's stable set
// and, for every want in verdictWants, its can-reach set equal the
// reference's, and that StableIDs lists exactly the stable set.
func requireVerdictMatchesReference(t testing.TB, g *Graph) {
	t.Helper()
	var stableIDs []int32
	for _, want := range verdictWants(g) {
		cd := g.condense(want)
		stable, can := referenceVerdict(g, want)
		stableIDs = stableIDs[:0]
		for v, r := range cd.root {
			if got := cd.lo[r] == cd.hi[r]; got != stable[v] {
				t.Fatalf("want %d: config %d stable = %v, reference %v", want, v, got, stable[v])
			}
			if cd.can[r] != can[v] {
				t.Fatalf("want %d: config %d can reach = %v, reference %v", want, v, cd.can[r], can[v])
			}
			if stable[v] {
				stableIDs = append(stableIDs, int32(v))
			}
		}
	}
	if got := g.StableIDs(); !slices.Equal(got, stableIDs) {
		t.Fatalf("StableIDs = %v, reference %v", got, stableIDs)
	}
}

// requireSuccFromRows rebuilds every out-edge of a complete graph from its
// rows — each reaction applicable at the source, in index order, applied —
// and requires the result to equal Succ exactly, so a wrong, missing, extra
// or misordered edge fails.
func requireSuccFromRows(t testing.TB, g *Graph) {
	t.Helper()
	if !g.Complete {
		t.Fatal("requireSuccFromRows needs a complete graph")
	}
	ids := make(map[string]int32, g.NumConfigs())
	for v := int32(0); v < int32(g.NumConfigs()); v++ {
		ids[g.Counts(v).Key()] = v
	}
	next := make(vec.V, g.d)
	var want []int32
	for u := int32(0); u < int32(g.NumConfigs()); u++ {
		cur := g.Counts(u)
		want = want[:0]
		for ri := 0; ri < g.CRN.NumReactions(); ri++ {
			if !g.CRN.ApplicableAt(cur, ri) {
				continue
			}
			g.CRN.ApplyInto(next, cur, ri)
			v, ok := ids[next.Key()]
			if !ok {
				t.Fatalf("config %d: reaction %d leads to %v, which the graph does not hold", u, ri, next)
			}
			want = append(want, v)
		}
		if got := g.Succ(u); !slices.Equal(got, want) {
			t.Fatalf("config %d: Succ = %v, rebuilt from rows %v", u, got, want)
		}
	}
}

// For the tests in package reach_test, which build the Fig 4a construction.
var (
	RequireVerdictMatchesReference = requireVerdictMatchesReference
	RequireSuccFromRows            = requireSuccFromRows
)

func TestReferencePredecessorsConsistent(t *testing.T) {
	g := Explore(maxCRN().MustInitialConfig(vec.New(1, 2)))
	pred, predOff := referencePred(g)
	// Every successor edge appears as a predecessor edge, as often.
	for u := 0; u < g.NumConfigs(); u++ {
		for _, v := range g.Succ(int32(u)) {
			if got, want := countOf(pred[predOff[v]:predOff[v+1]], int32(u)), countOf(g.Succ(int32(u)), v); got != want {
				t.Fatalf("edge %d→%d: %d times in Pred, %d in Succ", u, v, got, want)
			}
		}
	}
	if int(predOff[g.NumConfigs()]) != len(g.succ) {
		t.Fatalf("%d in-edges for %d out-edges", predOff[g.NumConfigs()], len(g.succ))
	}
}

func countOf(s []int32, x int32) int {
	n := 0
	for _, y := range s {
		if y == x {
			n++
		}
	}
	return n
}

func TestGraphSuccMatchesRows(t *testing.T) {
	g := Explore(maxCRN().MustInitialConfig(vec.New(2, 2)))
	if len(g.succ) == 0 {
		t.Fatal("graph has no edges")
	}
	requireSuccFromRows(t, g)
}

// TestVerdictPassMatchesReference runs the verdict pass against the
// reference on every graph the reach tests build, complete and truncated.
func TestVerdictPassMatchesReference(t *testing.T) {
	cases := append([]widenCase{
		{"min", minCRN().MustInitialConfig(vec.New(4, 3)), nil, 0},
		{"max", maxCRN().MustInitialConfig(vec.New(5, 4)), nil, 0},
		{"branchy", branchyCRN().MustInitialConfig(vec.New(5, 5)), nil, 0},
		{"branchy-large", branchyCRN().MustInitialConfig(vec.New(9, 9)), nil, 0},
		{"branchy-budget-100", branchyCRN().MustInitialConfig(vec.New(6, 6)), []Option{WithMaxConfigs(100)}, 0},
		{"grower-countcap", growerCRN().MustInitialConfig(vec.New(3)), []Option{WithMaxCount(40)}, 0},
		{"grower-budget", growerCRN().MustInitialConfig(vec.New(1)), []Option{WithMaxConfigs(100)}, 0},
	}, widenCases()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Explore(tc.root, tc.opts...)
			requireVerdictMatchesReference(t, g)
			if g.Complete {
				requireSuccFromRows(t, g)
			}
		})
	}
}

// fuzzSpecies are the species a fuzzed CRN draws from; the last slot of a
// reaction side's byte means "none".
var fuzzSpecies = []crn.Species{"X1", "X2", "Y", "A", "B"}

// fuzzCRN decodes data into a small CRN with inputs X1, X2 and output Y,
// plus its input: the first two bytes are the input counts (mod 4), each
// following triple is one reaction — reactant pair, product pair (two
// species slots per byte, each in [0, 6) with 5 = none), and a flag byte
// whose low bit adds the reverse reaction. Reactions may consume Y, and
// may create species from nothing. It returns nil when data holds no
// reaction.
func fuzzCRN(data []byte) (*crn.CRN, vec.V) {
	if len(data) < 5 {
		return nil, nil
	}
	x := vec.New(int64(data[0]%4), int64(data[1]%4))
	side := func(b byte) []crn.Term {
		var ts []crn.Term
		for _, s := range []int{int(b) % 6, int(b) / 6 % 6} {
			if s == len(fuzzSpecies) {
				continue
			}
			if i := slices.IndexFunc(ts, func(t crn.Term) bool { return t.Sp == fuzzSpecies[s] }); i >= 0 {
				ts[i].Coeff++
			} else {
				ts = append(ts, crn.Term{Coeff: 1, Sp: fuzzSpecies[s]})
			}
		}
		return ts
	}
	var rs []crn.Reaction
	for p := data[2:]; len(p) >= 3 && len(rs) < 8; p = p[3:] {
		r := crn.Reaction{Reactants: side(p[0]), Products: side(p[1])}
		if len(r.Reactants) == 0 && len(r.Products) == 0 {
			continue
		}
		rs = append(rs, r)
		if p[2]&1 == 1 {
			rs = append(rs, crn.Reaction{Reactants: r.Products, Products: r.Reactants})
		}
	}
	if len(rs) == 0 {
		return nil, nil
	}
	return crn.MustNew(fuzzSpecies[:2], "Y", "", rs), x
}

// FuzzVerdictPass differentially tests the verdict pass against the
// three-pass reference on small random CRNs, explored under small budgets
// so truncated graphs are covered as well as complete ones. The seed corpus
// (testdata/fuzz/FuzzVerdictPass) holds min, a reversible reaction that
// makes Y, a chain that consumes Y, growth from nothing, a cycle back to
// the search's root that only the root can leave, and a mix.
func FuzzVerdictPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, x := fuzzCRN(data)
		if c == nil {
			return
		}
		g := Explore(c.MustInitialConfig(x), WithWorkers(1), WithMaxConfigs(200), WithMaxCount(6))
		requireVerdictMatchesReference(t, g)
		if g.Complete {
			requireSuccFromRows(t, g)
		}
	})
}
