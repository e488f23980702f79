package compose

import (
	"strings"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/sim"
	"crncompose/internal/vec"
)

func minCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

func maxCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
	})
}

func doubleCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "Y"}}},
	})
}

// TestComposable2Min reproduces the Section 1.2 positive example: the
// concatenation of min (output-oblivious) with double stably computes
// 2·min(x1, x2) (Observation 2.2).
func TestComposable2Min(t *testing.T) {
	comp, err := Concat(minCRN(), doubleCRN())
	if err != nil {
		t.Fatal(err)
	}
	if !comp.IsOutputOblivious() {
		t.Error("composition of output-oblivious CRNs must be output-oblivious")
	}
	res, err := reach.CheckGrid(comp, func(x []int64) int64 { return 2 * min(x[0], x[1]) },
		[]int64{0, 0}, []int64{4, 4})
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
}

// TestNonComposable2Max reproduces the Section 1.2 negative example: the
// concatenation of the NON-output-oblivious max CRN with double does NOT
// stably compute 2·max — the downstream reaction W → 2Y races the upstream
// correction K + W → ∅ and overproduces up to 2(x1+x2).
func TestNonComposable2Max(t *testing.T) {
	comp, err := Concat(maxCRN(), doubleCRN())
	if err != nil {
		t.Fatal(err)
	}
	res, err := reach.CheckGrid(comp, func(x []int64) int64 { return 2 * max(x[0], x[1]) },
		[]int64{1, 1}, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("naive 2·max composition verified — it must NOT stably compute 2·max")
	}
	// The refutation is an overproduction: the witness reaches a config
	// from which 2·max is unreachable because too many Y were minted.
	if res.Failure == nil || res.Failure.Verdict.Witness == nil {
		t.Fatal("no witness")
	}
	// An adversarial schedule exhibits the overshoot concretely: fire the
	// max CRN's producing reactions and the doubler before the corrector.
	// Reaction order in comp: leaderless, so indices follow construction:
	// f's 4 reactions then g's 1.
	sched := sim.PreferScheduler([]int{0, 1, 4})
	r := sim.RunScheduled(comp.MustInitialConfig(vec.New(3, 3)), sched)
	if !r.Converged {
		t.Fatal("adversarial run did not converge")
	}
	if got := r.Final.Output(); got <= 2*3 {
		t.Errorf("adversarial schedule produced %d ≤ 6; expected overshoot", got)
	}
}

func TestConcatRejectsMultiInputDownstream(t *testing.T) {
	if _, err := Concat(minCRN(), minCRN()); err == nil {
		t.Fatal("2-input downstream accepted")
	}
}

func TestConcatLeaderSplit(t *testing.T) {
	// Leadered upstream and downstream: the composition gets a fresh
	// leader with a split reaction.
	up := crn.MustNew([]crn.Species{"X"}, "Y", "L", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	down := crn.MustNew([]crn.Species{"X"}, "Y", "M", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "M"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	comp, err := Concat(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Leader == "" {
		t.Fatal("composition lost the leader")
	}
	// min(1, min(1, x)) = min(1, x).
	res, err := reach.CheckGrid(comp, func(x []int64) int64 { return min(1, x[0]) },
		[]int64{0}, []int64{5})
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
}

func TestBuilderFanOut(t *testing.T) {
	b := NewBuilder()
	b.AddFanOut("X", "A", "B")
	c, err := b.Finish([]crn.Species{"X"}, "A")
	if err != nil {
		t.Fatal(err)
	}
	res, err := reach.CheckGrid(c, func(x []int64) int64 { return x[0] }, []int64{0}, []int64{6})
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
}

func TestBuilderFreshAvoidsClaimed(t *testing.T) {
	b := NewBuilder()
	b.Claim("W_1")
	w := b.Fresh("W")
	if w == "W_1" {
		t.Error("Fresh returned a claimed name")
	}
	if b.Fresh("W") == w {
		t.Error("Fresh returned a duplicate")
	}
}

func TestInstantiateNamespacing(t *testing.T) {
	b := NewBuilder()
	l1, err := b.Instantiate(maxCRN(), "m1.", []crn.Species{"U1", "U2"}, "O1")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := b.Instantiate(maxCRN(), "m2.", []crn.Species{"V1", "V2"}, "O2")
	if err != nil {
		t.Fatal(err)
	}
	if l1 != "" || l2 != "" {
		t.Error("leaderless module returned a leader")
	}
	c, err := b.Finish([]crn.Species{"U1", "U2", "V1", "V2"}, "O1")
	if err != nil {
		t.Fatal(err)
	}
	// The internal species Z1 of the two instances must be distinct.
	names := strings.Join(speciesStrings(c), " ")
	if !strings.Contains(names, "m1.Z1") || !strings.Contains(names, "m2.Z1") {
		t.Errorf("namespacing missing: %s", names)
	}
}

func speciesStrings(c *crn.CRN) []string {
	var out []string
	for _, sp := range c.SpeciesList() {
		out = append(out, string(sp))
	}
	return out
}

func TestInstantiateArityCheck(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Instantiate(minCRN(), "x.", []crn.Species{"A"}, "O"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
