// Package compose implements composition of CRNs by concatenation
// (Section 2.3 of the paper): renaming the output species of an upstream
// CRN to match an input species of a downstream CRN, keeping all other
// species namespaces disjoint, and splitting the leader (L → Lf + Lg).
// By Observation 2.2 the concatenation stably computes the composition
// whenever the upstream CRN is output-oblivious.
//
// The Builder type supports general feed-forward wiring of many modules
// (fan-out, shared inputs, multi-stage pipelines) as used by the general
// construction of Lemma 6.2.
package compose

import (
	"fmt"

	"crncompose/internal/crn"
)

func renameTerms(ts []crn.Term, m map[crn.Species]crn.Species) []crn.Term {
	out := make([]crn.Term, len(ts))
	for i, t := range ts {
		out[i] = crn.Term{Coeff: t.Coeff, Sp: m[t.Sp]}
	}
	return out
}

// Concat builds the concatenated CRN C_{g∘f} of Section 2.3 for
// f : N^d → N and g : N → N: species sets are made disjoint, f's output is
// renamed to g's (single) input, and a fresh leader splits into both
// modules' leaders. By Observation 2.2, if cf is output-oblivious the
// result stably computes g∘f; the result is itself output-oblivious iff cg
// is.
func Concat(cf, cg *crn.CRN) (*crn.CRN, error) {
	if cg.Dim() != 1 {
		return nil, fmt.Errorf("compose: downstream CRN must take exactly 1 input, has %d", cg.Dim())
	}
	b := NewBuilder()
	inputs := make([]crn.Species, cf.Dim())
	for i := range inputs {
		inputs[i] = crn.Species(fmt.Sprintf("X%d", i+1))
	}
	w := b.Fresh("W")
	lf, err := b.Instantiate(cf, "f.", inputs, w)
	if err != nil {
		return nil, err
	}
	y := crn.Species("Y")
	lg, err := b.Instantiate(cg, "g.", []crn.Species{w}, y)
	if err != nil {
		return nil, err
	}
	return b.Finish(inputs, y, lf, lg)
}

// Builder accumulates reactions for a composite CRN and instantiates
// modules into disjoint namespaces.
type Builder struct {
	reactions []crn.Reaction
	fresh     int
	used      map[crn.Species]bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{used: make(map[crn.Species]bool)}
}

// Fresh returns a new species name based on base, unique in this builder.
func (b *Builder) Fresh(base string) crn.Species {
	for {
		b.fresh++
		sp := crn.Species(fmt.Sprintf("%s_%d", base, b.fresh))
		if !b.used[sp] {
			b.used[sp] = true
			return sp
		}
	}
}

// Claim records externally chosen species names so Fresh avoids them.
func (b *Builder) Claim(sps ...crn.Species) {
	for _, sp := range sps {
		b.used[sp] = true
	}
}

// Add appends raw reactions.
func (b *Builder) Add(rs ...crn.Reaction) {
	b.reactions = append(b.reactions, rs...)
}

// AddFanOut emits the fan-out reaction src → dst1 + dst2 + ... used by the
// Lemma 6.2 construction to feed one input stream to many modules.
func (b *Builder) AddFanOut(src crn.Species, dsts ...crn.Species) {
	products := make([]crn.Term, len(dsts))
	for i, d := range dsts {
		products[i] = crn.Term{Coeff: 1, Sp: d}
	}
	b.Add(crn.Reaction{
		Reactants: []crn.Term{{Coeff: 1, Sp: src}},
		Products:  products,
		Name:      "fanout " + string(src),
	})
}

// Instantiate copies module's reactions into the builder with its species
// renamed: the module's inputs become the given input species, its output
// becomes the given output species, and every other species is prefixed to
// keep namespaces disjoint. It returns the renamed leader species ("" if
// the module is leaderless). The caller is responsible for producing one
// copy of the returned leader (e.g. via a leader-split reaction).
func (b *Builder) Instantiate(module *crn.CRN, prefix string, inputs []crn.Species, output crn.Species) (crn.Species, error) {
	if len(inputs) != module.Dim() {
		return "", fmt.Errorf("compose: module takes %d inputs, given %d", module.Dim(), len(inputs))
	}
	mapping := make(map[crn.Species]crn.Species)
	for i, in := range module.Inputs {
		mapping[in] = inputs[i]
	}
	if prev, ok := mapping[module.Output]; ok && prev != output {
		return "", fmt.Errorf("compose: module output %q is also an input", module.Output)
	}
	mapping[module.Output] = output
	for _, sp := range module.SpeciesList() {
		if _, ok := mapping[sp]; !ok {
			to := crn.Species(prefix + string(sp))
			if b.used[to] {
				to = b.Fresh(prefix + string(sp))
			}
			b.used[to] = true
			mapping[sp] = to
		}
	}
	for _, r := range module.Reactions {
		b.Add(crn.Reaction{
			Reactants: renameTerms(r.Reactants, mapping),
			Products:  renameTerms(r.Products, mapping),
			Name:      r.Name,
		})
	}
	if module.Leader == "" {
		return "", nil
	}
	return mapping[module.Leader], nil
}

// Finish assembles the accumulated reactions into a CRN with the given
// interface. Non-empty leader names among leaders are produced by a single
// split reaction L → l1 + l2 + ...; if no module needs a leader the result
// is leaderless.
func (b *Builder) Finish(inputs []crn.Species, output crn.Species, leaders ...crn.Species) (*crn.CRN, error) {
	var needed []crn.Term
	for _, l := range leaders {
		if l != "" {
			needed = append(needed, crn.Term{Coeff: 1, Sp: l})
		}
	}
	var leader crn.Species
	reactions := b.reactions
	if len(needed) > 0 {
		leader = "L"
		if b.used[leader] {
			leader = b.Fresh("L")
		}
		split := crn.Reaction{
			Reactants: []crn.Term{{Coeff: 1, Sp: leader}},
			Products:  needed,
			Name:      "leader split",
		}
		reactions = append([]crn.Reaction{split}, reactions...)
	}
	return crn.New(inputs, output, leader, reactions)
}
