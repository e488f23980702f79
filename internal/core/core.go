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
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"

	"crncompose/internal/classify"
	"crncompose/internal/crn"
	"crncompose/internal/parse"
	"crncompose/internal/progress"
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

// Compile runs classification and synthesis: Synthesize's general
// construction, without a progress reporter.
func Compile(f *semilinear.Func, opts CompileOptions) (*System, error) {
	return Synthesize(opts.Ctx, f, opts.Bound, opts.N, false, nil)
}

// Synthesize is the one synthesis pipeline (crnsynth, /v1/synthesize). With
// leaderless it builds Theorem 9.2's CRN (1D superadditive f only) and no
// Analysis; otherwise it classifies f and builds the Lemma 6.2 CRN, and a
// non-computable f's error wraps its *synth.NotComputableError followed by
// the Lemma 4.1 contradiction.
func Synthesize(ctx context.Context, f *semilinear.Func, bound, n int64, leaderless bool, rep progress.Reporter) (*System, error) {
	if leaderless {
		if f.Dim() != 1 {
			return nil, fmt.Errorf("core: leaderless construction is 1D only (Theorem 9.2); %s takes %d inputs", f.Name, f.Dim())
		}
		spec, err := synth.FitOneDim(func(x int64) int64 { return f.Eval(vec.New(x)) }, 0, 0)
		if err != nil {
			return nil, err
		}
		net, err := synth.LeaderlessOneDim(spec)
		if err != nil {
			return nil, err
		}
		return &System{F: f, Net: net}, nil
	}
	net, res, err := synth.General(f, synth.GeneralOptions{
		Classify: classify.Options{Bound: bound, WitnessSearch: true, Ctx: ctx, Progress: rep},
		N:        n,
		Progress: rep,
	})
	var nce *synth.NotComputableError
	if errors.As(err, &nce) && nce.Result.Contradiction != nil {
		return nil, fmt.Errorf("core: %w\n%s", err, nce.Result.Contradiction)
	}
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
	return reach.CheckGridCtx(ctx, s.Net, Evaluator(s.F), los, his, opts...)
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

// DefaultMaxConfigs is the per-input exploration budget crncheck,
// crnsynth -verify and /v1/check default to (4× reach.DefaultMaxConfigs).
const DefaultMaxConfigs = 1 << 20

// DefaultHi is the per-coordinate grid upper bound crncheck -hi and
// /v1/check default to.
const DefaultHi = 3

// library builds the immutable library functions once, for every caller.
var library = sync.OnceValue(func() map[string]*semilinear.Func {
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
})

// Library returns the paper's named functions: a fresh map over shared
// functions, which callers must not modify.
func Library() map[string]*semilinear.Func { return maps.Clone(library()) }

// LibraryNames returns the sorted names of Library.
func LibraryNames() []string { return slices.Sorted(maps.Keys(library())) }

// Lookup returns the named library function, or the one "core: unknown
// function" error every front end reports.
func Lookup(name string) (*semilinear.Func, error) {
	f, ok := library()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown function %q", name)
	}
	return f, nil
}

// Evaluator wraps f as the engine's reach.Func.
func Evaluator(f *semilinear.Func) reach.Func {
	return func(x []int64) int64 { return f.Eval(vec.New(x...)) }
}

// Resolve returns the named library function's evaluator, in the shape of
// dist.Worker.Resolve (crncheck -join's resolver).
func Resolve(name string) (reach.Func, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return Evaluator(f), nil
}

// ReadCRN reads a CRN file's text; path "-" reads stdin.
func ReadCRN(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// ParseCheck parses CRN text, looks up the library function it should
// compute and checks their arities agree: crncheck's and /v1/check's front.
func ParseCheck(src, name string) (*crn.CRN, reach.Func, error) {
	c, err := parse.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	f, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if c.Dim() != f.Dim() {
		return nil, nil, fmt.Errorf("core: CRN takes %d inputs but %s takes %d", c.Dim(), f.Name, f.Dim())
	}
	return c, Evaluator(f), nil
}
