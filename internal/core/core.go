// Package core is the top-level facade of the library: the end-to-end
// pipeline
//
//	describe f (semilinear)  →  classify (Theorem 5.2)  →
//	synthesize an output-oblivious CRN (Lemma 6.2)  →
//	verify (model checking) / simulate (Gillespie or fair scheduler)
//
// tying together the substrate packages. Examples and command-line tools
// build on this package.
package core

import (
	"context"
	"fmt"
	"sort"

	"crncompose/internal/classify"
	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/semilinear"
	"crncompose/internal/sim"
	"crncompose/internal/synth"
	"crncompose/internal/vec"
	"crncompose/internal/witness"
)

// System is a compiled function: the semilinear description, its
// Theorem 5.2 classification, and the synthesized output-oblivious CRN.
type System struct {
	F        *semilinear.Func
	Analysis *classify.Result
	Net      *crn.CRN
}

// CompileOptions tune the pipeline.
type CompileOptions struct {
	// Bound is the classifier's census bound (0 = default).
	Bound int64
	// N overrides the eventual threshold used by the construction
	// (0 = classifier's; smaller values give much smaller CRNs when valid).
	N int64
	// Ctx, when non-nil, cancels classification and synthesis: a canceled
	// Compile returns a wrapped ctx.Err() within one classifier step or
	// one restriction module of work.
	Ctx context.Context
}

// Compile runs classification and synthesis. When f is not
// obliviously-computable the returned error is a *synth.NotComputableError
// carrying the Lemma 4.1 contradiction.
func Compile(f *semilinear.Func, opts CompileOptions) (*System, error) {
	net, res, err := synth.General(f, synth.GeneralOptions{
		Classify: classify.Options{Bound: opts.Bound, WitnessSearch: true, Ctx: opts.Ctx},
		N:        opts.N,
	})
	if err != nil {
		return nil, err
	}
	return &System{F: f, Analysis: res, Net: net}, nil
}

// Verify model-checks that the compiled CRN stably computes f on the grid
// [lo, hi]^d (the literal Section 2.2 definition, checked exhaustively).
func (s *System) Verify(lo, hi int64, opts ...reach.Option) (reach.GridResult, error) {
	return s.VerifyCtx(context.Background(), lo, hi, opts...)
}

// VerifyCtx is Verify under a cancellation context (see reach.CheckGridCtx
// for the semantics: a canceled run returns a wrapped ctx.Err() and no
// partial counts; a completed run is identical to Verify's).
func (s *System) VerifyCtx(ctx context.Context, lo, hi int64, opts ...reach.Option) (reach.GridResult, error) {
	los, his := reach.Cube(s.F.Dim(), lo, hi)
	return reach.CheckGridCtx(ctx, s.Net, func(x []int64) int64 { return s.F.Eval(vec.New(x...)) },
		los, his, opts...)
}

// Simulate runs trials fair-random simulations at input x and reports
// whether all converged to f(x).
func (s *System) Simulate(x vec.V, trials int, seed uint64) (sim.Stats, error) {
	start, err := s.Net.InitialConfig(x)
	if err != nil {
		return sim.Stats{}, err
	}
	results := sim.Ensemble(sim.FairRandom, start, trials, seed)
	st := sim.Summarize(results)
	want := s.F.Eval(x)
	if st.Converged != trials || !st.AllEqual || st.MinOutput != want {
		return st, fmt.Errorf("core: simulation disagrees with f(%v) = %d: %+v", x, want, st)
	}
	return st, nil
}

// Reject classifies f expecting non-computability and returns the
// classifier result with its Lemma 4.1 contradiction. Errors if f turns
// out to be computable.
func Reject(f *semilinear.Func) (*classify.Result, error) {
	res, err := classify.Analyze(f, classify.Options{WitnessSearch: true})
	if err != nil {
		return nil, err
	}
	if res.Computable {
		return nil, fmt.Errorf("core: %s IS obliviously-computable", f.Name)
	}
	return res, nil
}

// Demonstrate builds the Fig 6 style overproduction trace against an
// output-oblivious CRN claimed to compute f (see witness.BuildOverproduction).
func Demonstrate(c *crn.CRN, f witness.Func, con *witness.Contradiction) (*witness.Overproduction, error) {
	return witness.BuildOverproduction(c, f, con)
}

// Library returns the named functions from the paper available to the
// command-line tools, sorted by name.
func Library() map[string]*semilinear.Func {
	return map[string]*semilinear.Func{
		"identity":   semilinear.Identity(),
		"double":     semilinear.Double(),
		"min":        semilinear.Min2(),
		"max":        semilinear.Max2(),
		"min1":       semilinear.MinConst1(),
		"floor3x2":   semilinear.FloorThreeHalves(),
		"fig3b":      semilinear.Fig3b(),
		"fig7":       semilinear.Fig7(),
		"eq2":        semilinear.Equation2(),
		"fig4a":      semilinear.Fig4a(),
		"sumplusmin": semilinear.SumPlusMin(),
	}
}

// LibraryNames returns the sorted names of Library.
func LibraryNames() []string {
	lib := Library()
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
