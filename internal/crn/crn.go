// Package crn implements the discrete chemical reaction network model of
// Section 2.2 of the paper: finite species sets, reactions (R, P) ∈ N^S×N^S,
// integer-count configurations, applicability and the additive reachability
// step relation, plus the output-oblivious and output-monotonic structural
// predicates of Section 2.3.
package crn

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Species is a species name. Names are case-sensitive identifiers.
type Species string

// Term is one species with a stoichiometric coefficient, as it appears on
// one side of a reaction.
type Term struct {
	Coeff int64
	Sp    Species
}

// Reaction consumes Reactants and produces Products. Coefficients are
// positive; a species may appear on both sides (a catalyst).
type Reaction struct {
	Reactants []Term
	Products  []Term
	// Name is an optional label used in traces and error messages.
	Name string
}

// R returns the total coefficient of sp among the reactants.
func (r Reaction) R(sp Species) int64 { return coeffOf(r.Reactants, sp) }

// P returns the total coefficient of sp among the products.
func (r Reaction) P(sp Species) int64 { return coeffOf(r.Products, sp) }

// Net returns P(sp) - R(sp): the net change in sp when the reaction fires.
func (r Reaction) Net(sp Species) int64 { return r.P(sp) - r.R(sp) }

// Order returns the total reactant coefficient (the molecularity).
func (r Reaction) Order() int64 {
	var n int64
	for _, t := range r.Reactants {
		n += t.Coeff
	}
	return n
}

func coeffOf(ts []Term, sp Species) int64 {
	var n int64
	for _, t := range ts {
		if t.Sp == sp {
			n += t.Coeff
		}
	}
	return n
}

// String renders the reaction in the standard arrow notation, e.g.
// "X1 + X2 -> Y" or "L -> 2Y + L0". An empty side renders as "0".
func (r Reaction) String() string {
	return string(r.appendTo(nil))
}

// appendTo appends r in arrow notation to b. It is the one renderer behind
// Reaction.String and CRN.String, whose bytes are the cache key's canonical
// form: changing them moves every content address.
func (r Reaction) appendTo(b []byte) []byte {
	b = appendSide(b, r.Reactants)
	b = append(b, " -> "...)
	return appendSide(b, r.Products)
}

// appendSide appends one reaction side: "0" when empty, otherwise its terms
// joined by " + ", each with its coefficient prefixed when it is not 1.
func appendSide(b []byte, ts []Term) []byte {
	if len(ts) == 0 {
		return append(b, '0')
	}
	for i, t := range ts {
		if i > 0 {
			b = append(b, " + "...)
		}
		if t.Coeff != 1 {
			b = strconv.AppendInt(b, t.Coeff, 10)
		}
		b = append(b, t.Sp...)
	}
	return b
}

// CRN is a chemical reaction network together with the computational roles
// defined in Section 2.2: an ordered list of input species, an output
// species, and an optional leader species.
type CRN struct {
	// Inputs are the input species X1..Xd in order.
	Inputs []Species
	// Output is the output species Y.
	Output Species
	// Leader is the leader species L; empty for leaderless CRNs.
	Leader Species
	// Reactions is the reaction set.
	Reactions []Reaction

	indexOnce sync.Once          // guards the lazy build below
	species   []Species          // sorted species universe (lazily built)
	index     map[Species]int    // species -> dense index
	compiled  []compiledReaction // dense form for fast simulation

	depsOnce   sync.Once // guards the lazy dependency graph build
	dependents [][]int32 // reaction → reactions whose applicability it can change

	simOnce sync.Once // guards the sim-opaque slot below
	simSlot any       // whatever the simulator memoizes per CRN (see SimSlot)
}

type compiledReaction struct {
	reactants []IdxCoeff // consumed counts by species index
	delta     []IdxCoeff // net change by species index
}

// IdxCoeff pairs a dense species index with a coefficient; the compiled
// dense form of reaction sides (see ReactantsAt and DeltaAt).
type IdxCoeff struct {
	Idx   int
	Coeff int64
}

// New constructs a CRN with the given roles and reactions, and validates it.
// The species table and compiled reaction rows are not built here but on
// first engine use (buildIndex), so parsing a CRN only to render or hash it,
// as a cached /v1/check does, never pays for them.
func New(inputs []Species, output, leader Species, reactions []Reaction) (*CRN, error) {
	c := &CRN{
		Inputs:    append([]Species(nil), inputs...),
		Output:    output,
		Leader:    leader,
		Reactions: append([]Reaction(nil), reactions...),
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New that panics on error, for statically known CRNs in tests
// and examples.
func MustNew(inputs []Species, output, leader Species, reactions []Reaction) *CRN {
	c, err := New(inputs, output, leader, reactions)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks structural well-formedness: nonzero positive coefficients,
// distinct input species, an output species, and a nonempty species universe
// that includes the declared roles.
func (c *CRN) Validate() error {
	if c.Output == "" {
		return errors.New("crn: missing output species")
	}
	seen := make(map[Species]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		if in == "" {
			return errors.New("crn: empty input species name")
		}
		if seen[in] {
			return fmt.Errorf("crn: duplicate input species %q", in)
		}
		seen[in] = true
	}
	for i, r := range c.Reactions {
		if len(r.Reactants) == 0 && len(r.Products) == 0 {
			return fmt.Errorf("crn: reaction %d is empty", i)
		}
		for _, side := range [2][]Term{r.Reactants, r.Products} {
			for _, t := range side {
				if t.Coeff <= 0 {
					return fmt.Errorf("crn: reaction %d has nonpositive coefficient %d for %q", i, t.Coeff, t.Sp)
				}
				if t.Sp == "" {
					return fmt.Errorf("crn: reaction %d names an empty species", i)
				}
			}
		}
	}
	return nil
}

// SpeciesList returns the sorted universe of species: every species named in
// a reaction, plus the inputs, output, and leader.
func (c *CRN) SpeciesList() []Species {
	c.buildIndex()
	out := make([]Species, len(c.species))
	copy(out, c.species)
	return out
}

// Index returns the dense index of sp, or -1 if the species is unknown.
func (c *CRN) Index(sp Species) int {
	c.buildIndex()
	if i, ok := c.index[sp]; ok {
		return i
	}
	return -1
}

// NumSpecies returns the size of the species universe.
func (c *CRN) NumSpecies() int {
	c.buildIndex()
	return len(c.species)
}

// buildIndex lazily builds the species table and compiled reaction rows.
// It is safe for concurrent first call: the reachability engine's parallel
// workers and sim ensembles may race to trigger the build.
func (c *CRN) buildIndex() {
	c.indexOnce.Do(c.buildIndexNow)
}

func (c *CRN) buildIndexNow() {
	set := make(map[Species]bool)
	for _, in := range c.Inputs {
		set[in] = true
	}
	set[c.Output] = true
	if c.Leader != "" {
		set[c.Leader] = true
	}
	for _, r := range c.Reactions {
		for _, t := range r.Reactants {
			set[t.Sp] = true
		}
		for _, t := range r.Products {
			set[t.Sp] = true
		}
	}
	species := make([]Species, 0, len(set))
	for sp := range set {
		species = append(species, sp)
	}
	sort.Slice(species, func(i, j int) bool { return species[i] < species[j] })
	index := make(map[Species]int, len(species))
	for i, sp := range species {
		index[sp] = i
	}
	c.species = species
	c.index = index

	c.compiled = make([]compiledReaction, len(c.Reactions))
	for ri, r := range c.Reactions {
		need := make(map[int]int64)
		delta := make(map[int]int64)
		for _, t := range r.Reactants {
			need[index[t.Sp]] += t.Coeff
			delta[index[t.Sp]] -= t.Coeff
		}
		for _, t := range r.Products {
			delta[index[t.Sp]] += t.Coeff
		}
		cr := compiledReaction{}
		for idx, coeff := range need {
			cr.reactants = append(cr.reactants, IdxCoeff{idx, coeff})
		}
		for idx, d := range delta {
			if d != 0 {
				cr.delta = append(cr.delta, IdxCoeff{idx, d})
			}
		}
		sort.Slice(cr.reactants, func(i, j int) bool { return cr.reactants[i].Idx < cr.reactants[j].Idx })
		sort.Slice(cr.delta, func(i, j int) bool { return cr.delta[i].Idx < cr.delta[j].Idx })
		c.compiled[ri] = cr
	}
}

// ReactantsAt returns reaction ri's reactant requirements in compiled dense
// form: duplicate terms merged per species, sorted by species index. The
// slice is shared with the CRN — callers must not mutate it. This is the
// single source of truth for merged-reactant semantics (applicability and
// mass-action propensities must agree on it).
func (c *CRN) ReactantsAt(ri int) []IdxCoeff {
	c.buildIndex()
	return c.compiled[ri].reactants
}

// DeltaAt returns reaction ri's net count change in compiled dense form:
// only species with nonzero net change, sorted by species index. Shared;
// do not mutate.
func (c *CRN) DeltaAt(ri int) []IdxCoeff {
	c.buildIndex()
	return c.compiled[ri].delta
}

// DependentsAt returns the indices of the reactions whose applicability or
// mass-action propensity can change when reaction ri fires: those consuming
// a species in ri's net change. The list is sorted ascending and
// deduplicated, built lazily once per CRN (the same sync.Once discipline as
// the species index) and shared — callers must not mutate it. It is the
// single source of truth for incremental propensity and applicable-set
// maintenance in the simulator.
func (c *CRN) DependentsAt(ri int) []int32 {
	c.buildIndex()
	c.depsOnce.Do(c.buildDependents)
	return c.dependents[ri]
}

func (c *CRN) buildDependents() {
	nR := len(c.Reactions)
	consumers := make([][]int32, len(c.species))
	for ri := 0; ri < nR; ri++ {
		for _, t := range c.compiled[ri].reactants {
			consumers[t.Idx] = append(consumers[t.Idx], int32(ri))
		}
	}
	c.dependents = make([][]int32, nR)
	for ri := 0; ri < nR; ri++ {
		var deps []int32
		for _, d := range c.compiled[ri].delta {
			deps = append(deps, consumers[d.Idx]...)
		}
		slices.Sort(deps)
		c.dependents[ri] = slices.Compact(deps)
	}
}

// SimSlot returns the simulator-opaque value memoized on this CRN, building
// it with build on the first call (same sync.Once discipline as the species
// index and the dependency graph — safe for concurrent first call). The slot
// exists so internal/sim can cache its per-CRN compiled view without crn
// importing sim; the stored value must be immutable after build, since every
// simulation run on this CRN shares it. Exactly one caller (the simulator)
// owns the slot's type.
func (c *CRN) SimSlot(build func() any) any {
	c.simOnce.Do(func() { c.simSlot = build() })
	return c.simSlot
}

// IsOutputOblivious reports whether the output species never appears as a
// reactant (Section 2.3). This is the structural property equivalent to
// composability via concatenation.
func (c *CRN) IsOutputOblivious() bool {
	for _, r := range c.Reactions {
		if r.R(c.Output) > 0 {
			return false
		}
	}
	return true
}

// IsOutputMonotonic reports whether no reaction decreases the count of the
// output species (the weaker property of footnote 7 / Observation 2.4).
func (c *CRN) IsOutputMonotonic() bool {
	for _, r := range c.Reactions {
		if r.Net(c.Output) < 0 {
			return false
		}
	}
	return true
}

// Dim returns the input arity d.
func (c *CRN) Dim() int { return len(c.Inputs) }

// String renders the CRN with role directives followed by one reaction per
// line, in a format accepted by the parse package. A CRN without inputs
// still renders its "#input " line, trailing space included.
func (c *CRN) String() string {
	// Presize for the names, separators and one-digit coefficients, so a
	// typical CRN renders in one allocation plus the string copy.
	n := 32 + len(c.Output) + len(c.Leader)
	for _, in := range c.Inputs {
		n += len(in) + 1
	}
	for _, r := range c.Reactions {
		n += 8
		for _, t := range r.Reactants {
			n += len(t.Sp) + 4
		}
		for _, t := range r.Products {
			n += len(t.Sp) + 4
		}
	}
	b := make([]byte, 0, n)
	b = append(b, "#input "...)
	for i, in := range c.Inputs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, in...)
	}
	b = append(b, "\n#output "...)
	b = append(b, c.Output...)
	b = append(b, '\n')
	if c.Leader != "" {
		b = append(b, "#leader "...)
		b = append(b, c.Leader...)
		b = append(b, '\n')
	}
	for _, r := range c.Reactions {
		b = r.appendTo(b)
		b = append(b, '\n')
	}
	return string(b)
}
