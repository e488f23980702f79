// Package benchcrn provides the shared benchmark workloads used by the
// in-tree `go test -bench` suites, cmd/bench and _perfbench, so the
// committed BENCH_reach.json, BENCH_sim.json and BENCH_e2e.json numbers
// always measure exactly the same networks and baseline algorithms as the
// benchmarks they mirror.
package benchcrn

import (
	"fmt"
	"math/rand/v2"

	"crncompose/internal/crn"
)

// Ring synthesizes a token-ring CRN with m reactions S_i → S_{i+1 mod m},
// every 8th station also emitting an output Y. Firing any reaction perturbs
// the propensities of only ~2 others, so it is the sparse-dependency
// workload the incremental Gillespie engine targets: a full-recompute
// simulator pays O(m) per step, the dependency-graph engine O(1).
func Ring(m int) *crn.CRN {
	sp := func(i int) crn.Species { return crn.Species(fmt.Sprintf("S%03d", i%m)) }
	reactions := make([]crn.Reaction, 0, m)
	for i := 0; i < m; i++ {
		products := []crn.Term{{Coeff: 1, Sp: sp(i + 1)}}
		if i%8 == 0 {
			products = append(products, crn.Term{Coeff: 1, Sp: "Y"})
		}
		reactions = append(reactions, crn.Reaction{
			Reactants: []crn.Term{{Coeff: 1, Sp: sp(i)}},
			Products:  products,
		})
	}
	return crn.MustNew([]crn.Species{"S000"}, "Y", "", reactions)
}

// Branchy has interleaving independent reactions, so reachability BFS
// levels get wide and the configuration count grows combinatorially in both
// inputs. It stably computes max(x1, x2), making any rectangular grid a
// valid all-OK CheckGrid workload with strongly non-uniform per-input cost
// (the corner dominates the axes by orders of magnitude).
//
//crnlint:ignore unreached the _perfbench module's check, jobs and grid workloads run it
func Branchy() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "L", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "A"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "B"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "A"}, {Coeff: 1, Sp: "B"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "A"}}, Products: []crn.Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "C"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "C"}}, Products: []crn.Term{{Coeff: 1, Sp: "A"}}},
	})
}

// SkewGrid returns the skewed-grid reachability workload: on the 1-D grid
// [0, threshold] every input below the threshold is a one-configuration
// dead end, while x = threshold fires the unlock reaction and releases m
// independent two-state toggles — a 2^m-configuration state space with
// binomially wide BFS levels. No reaction touches the output species, so
// every configuration is trivially stable with output 0 and the CRN stably
// computes f ≡ 0 on the whole grid; CheckGrid still explores each input's
// full state space. The result is exactly one straggler among trivial
// inputs: with workers claiming whole inputs, the trivial inputs run
// beside the straggler, which explores on one goroutine.
func SkewGrid(threshold int64, m int) *crn.CRN {
	reactions := make([]crn.Reaction, 0, 2*m+1)
	unlock := make([]crn.Term, 0, m)
	for i := 0; i < m; i++ {
		a := crn.Species(fmt.Sprintf("A%02d", i))
		b := crn.Species(fmt.Sprintf("B%02d", i))
		unlock = append(unlock, crn.Term{Coeff: 1, Sp: a})
		reactions = append(reactions,
			crn.Reaction{Reactants: []crn.Term{{Coeff: 1, Sp: a}}, Products: []crn.Term{{Coeff: 1, Sp: b}}},
			crn.Reaction{Reactants: []crn.Term{{Coeff: 1, Sp: b}}, Products: []crn.Term{{Coeff: 1, Sp: a}}},
		)
	}
	reactions = append(reactions, crn.Reaction{
		Reactants: []crn.Term{{Coeff: threshold, Sp: "X"}},
		Products:  unlock,
	})
	return crn.MustNew([]crn.Species{"X"}, "Y", "", reactions)
}

// Max is the paper's Fig 1 max CRN — the standard small simulation target
// with transient output overshoot.
func Max() *crn.CRN {
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []crn.Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
	})
}

// FairRandomFullWalk is the pre-incremental FairRandom step loop — a full
// ApplicableReactions walk over every reaction each step — kept as the
// shared baseline for the incremental applicable-set engine (which re-probes
// only the fired reaction's dependents). Returns the number of reactions
// fired; the step sequence is identical to sim.FairRandom's for the same
// seed, since both draw the same uniform choices from the same sorted
// applicable list.
func FairRandomFullWalk(start crn.Config, maxSteps int64, seed uint64) (steps int64) {
	rng := rand.New(rand.NewPCG(seed, 0xDA942042E4DD58B5))
	cur := start.Clone()
	var applicable []int
	for steps < maxSteps {
		applicable = cur.ApplicableReactions(applicable)
		if len(applicable) == 0 {
			return steps
		}
		cur.ApplyInPlace(applicable[rng.IntN(len(applicable))])
		steps++
	}
	return steps
}

// GillespieFullRecompute is the pre-PR2 Gillespie step loop — every
// propensity recomputed from scratch each step, with per-term species map
// lookups — kept as the shared baseline so the incremental engine's win
// stays measurable in both benchmark suites. Returns the number of
// reactions fired.
func GillespieFullRecompute(start crn.Config, maxSteps int64, seed uint64) (steps int64) {
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	cur := start.Clone()
	c := cur.CRN()
	nR := len(c.Reactions)
	props := make([]float64, nR)
	for steps < maxSteps {
		total := 0.0
		for ri := 0; ri < nR; ri++ {
			p := 1.0
			for _, term := range c.Reactions[ri].Reactants {
				n := cur.Count(term.Sp)
				if n < term.Coeff {
					p = 0
					break
				}
				for j := int64(0); j < term.Coeff; j++ {
					p *= float64(n - j)
				}
				for j := int64(2); j <= term.Coeff; j++ {
					p /= float64(j)
				}
			}
			props[ri] = p
			total += p
		}
		if total == 0 {
			return steps
		}
		rng.ExpFloat64()
		u := rng.Float64() * total
		ri := 0
		for ; ri < nR-1; ri++ {
			u -= props[ri]
			if u < 0 {
				break
			}
		}
		cur.ApplyInPlace(ri)
		steps++
	}
	return steps
}
