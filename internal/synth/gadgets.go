// Package synth synthesizes output-oblivious CRNs from function
// descriptions, implementing every construction in the paper:
//
//   - Lemma 6.1: a CRN for any quilt-affine g : N^d → N (leader walks the
//     congruence classes and emits the periodic finite differences);
//   - Theorem 3.1: the 1D construction for semilinear nondecreasing f;
//   - Theorem 9.2: the leaderless 1D construction for semilinear
//     superadditive f (pairwise "corrective difference" reactions);
//   - Observation 2.4: the output-monotonic → output-oblivious transform;
//   - Lemma 6.2: the general construction, composing min, fan-out, clamp
//     (x−n)+, indicator a + 1{x(i)>j}·b, translated quilt-affine modules and
//     recursively constructed fixed-input restrictions via equation (1).
package synth

import (
	"fmt"

	"crncompose/internal/crn"
)

// MinCRN returns the CRN computing min(x_1, ..., x_k) with the single
// reaction X1 + ... + Xk → Y (Fig 1 generalized). Output-oblivious and
// leaderless.
func MinCRN(k int) *crn.CRN {
	if k < 1 {
		panic("synth: min arity must be ≥ 1")
	}
	inputs := make([]crn.Species, k)
	reactants := make([]crn.Term, k)
	for i := 0; i < k; i++ {
		inputs[i] = crn.Species(fmt.Sprintf("X%d", i+1))
		reactants[i] = crn.Term{Coeff: 1, Sp: inputs[i]}
	}
	return crn.MustNew(inputs, "Y", "", []crn.Reaction{{
		Reactants: reactants,
		Products:  []crn.Term{{Coeff: 1, Sp: "Y"}},
		Name:      "min",
	}})
}

// MaxCRN returns the four-reaction CRN for max(x1, x2) from Fig 1. It is
// NOT output-oblivious (the reaction K + Y → ∅ consumes Y); it exists as
// the running counterexample for composition and for the Fig 6 experiment.
func MaxCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}, Name: "x1 to y"},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}, Name: "x2 to y"},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}, Name: "pair"},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil, Name: "consume excess"},
	})
}

// DoubleCRN returns the CRN for f(x) = 2x (Fig 1): X → 2Y.
func DoubleCRN() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "Y"}}, Name: "double"},
	})
}

// MinConst1Leadered returns the output-oblivious CRN for min(1, x) with a
// leader (Fig 2, right): L + X → Y.
func MinConst1Leadered() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "L", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}, Name: "fire once"},
	})
}

// MinConst1Leaderless returns the leaderless CRN for min(1, x) from Fig 2
// (left): X → Y; 2Y → Y. It stably computes min(1,x) but is NOT
// output-oblivious.
func MinConst1Leaderless() *crn.CRN {
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}, Name: "convert"},
		{Reactants: []crn.Term{{Coeff: 2, Sp: "Y"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}, Name: "collapse"},
	})
}

// ClampCRN returns the CRN computing (x − n)+ componentwise for a single
// input: (n+1)X → nX + Y (Lemma 6.2). Output-oblivious and leaderless.
func ClampCRN(n int64) *crn.CRN {
	if n < 0 {
		panic("synth: negative clamp")
	}
	if n == 0 {
		return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
			{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}, Name: "clamp0"},
		})
	}
	return crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{
			Reactants: []crn.Term{{Coeff: n + 1, Sp: "X"}},
			Products:  []crn.Term{{Coeff: n, Sp: "X"}, {Coeff: 1, Sp: "Y"}},
			Name:      fmt.Sprintf("clamp%d", n),
		},
	})
}

// IndicatorCRN returns the CRN computing c(a, b, x) = a + 1{x > j}·b on
// inputs (A, B, X) (Lemma 6.2): A → Y and (j+1)X + B → (j+1)X + Y.
// Output-oblivious and leaderless; X acts catalytically.
func IndicatorCRN(j int64) *crn.CRN {
	return crn.MustNew([]crn.Species{"A", "B", "X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}, Name: "pass a"},
		{
			Reactants: []crn.Term{{Coeff: j + 1, Sp: "X"}, {Coeff: 1, Sp: "B"}},
			Products:  []crn.Term{{Coeff: j + 1, Sp: "X"}, {Coeff: 1, Sp: "Y"}},
			Name:      fmt.Sprintf("gate b by x>%d", j),
		},
	})
}

// MonotonicToOblivious implements Observation 2.4: given an
// output-monotonic CRN (no reaction decreases the output count), produce an
// equivalent output-oblivious CRN by replacing every catalytic use of the
// output Y with a shadow catalyst Z that is produced alongside every Y.
//
// Paper: Observation 2.4.
func MonotonicToOblivious(c *crn.CRN) (*crn.CRN, error) {
	if !c.IsOutputMonotonic() {
		return nil, fmt.Errorf("synth: CRN is not output-monotonic")
	}
	if c.IsOutputOblivious() {
		return c, nil
	}
	y := c.Output
	z := crn.Species(string(y) + "_shadow")
	for _, sp := range c.SpeciesList() {
		if sp == z {
			return nil, fmt.Errorf("synth: shadow species %q already exists", z)
		}
	}
	reactions := make([]crn.Reaction, len(c.Reactions))
	for i, r := range c.Reactions {
		consumed := r.R(y)
		net := r.Net(y) // ≥ 0 by monotonicity
		var reactants, products []crn.Term
		for _, t := range r.Reactants {
			if t.Sp != y {
				reactants = append(reactants, t)
			}
		}
		if consumed > 0 {
			reactants = append(reactants, crn.Term{Coeff: consumed, Sp: z})
		}
		for _, t := range r.Products {
			if t.Sp != y {
				products = append(products, t)
			}
		}
		if net > 0 {
			products = append(products, crn.Term{Coeff: net, Sp: y})
		}
		// Return the borrowed catalysts and mint one shadow per new output.
		if consumed+net > 0 {
			products = append(products, crn.Term{Coeff: consumed + net, Sp: z})
		}
		reactions[i] = crn.Reaction{Reactants: reactants, Products: products, Name: r.Name}
	}
	return crn.New(c.Inputs, y, c.Leader, reactions)
}
