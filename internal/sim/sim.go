// Package sim provides stochastic simulation of discrete CRNs:
//
//   - an exact Gillespie stochastic simulation algorithm (direct method)
//     with combinatorial propensities for reactions of arbitrary order,
//   - a fair uniform-random scheduler that realizes the probability-1
//     convergence semantics of stable computation (footnote 2 of the paper),
//   - adversarial schedulers used to demonstrate output overshoot in
//     non-output-oblivious compositions (Section 1.2),
//   - a parallel ensemble runner with per-trial deterministic seeding.
//
// All randomness flows through seeded PCG generators so every run is
// reproducible.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"crncompose/internal/crn"
	"crncompose/internal/progress"
)

// Result is the outcome of one simulated trial.
type Result struct {
	// Final is the configuration when simulation stopped.
	Final crn.Config
	// Steps is the number of reactions fired.
	Steps int64
	// Time is the simulated (Gillespie) time; zero for discrete schedulers.
	Time float64
	// Converged reports that no reaction was applicable (terminal), or that
	// the silence criterion was met.
	Converged bool
}

// Options configure a simulation run.
type Options struct {
	// MaxSteps bounds the number of reactions fired (DefaultMaxSteps).
	MaxSteps int64
	// Seed seeds the PCG generator.
	Seed uint64
	// SilentSteps: for CRNs that never become terminal (e.g. catalytic
	// loops), stop once the output count has been unchanged for this many
	// consecutive steps AND every applicable reaction is output-neutral.
	// The second conjunct is what keeps the criterion sound for stable
	// computation: a run is only declared converged while no applicable
	// reaction could still change the output. Zero disables the criterion.
	SilentSteps int64
	// Progress, when non-nil, receives a "sim" event every cancelWindow
	// steps from the simulating goroutine (Done = steps fired, Total =
	// MaxSteps). Attaching a Reporter never changes the step sequence.
	Progress progress.Reporter

	// ctx is the run's cancellation context, attached only by the *Ctx
	// entry points. It is polled every cancelWindow steps — a deterministic
	// boundary, so same-seed runs that complete are bit-identical whether
	// or not a context is attached; a canceled run returns a zero Result
	// and a wrapped ctx.Err(), never a partial trajectory.
	ctx context.Context
}

// cancelWindow is the step stride between the progress posts of every
// simulator loop and the random simulators' cancellation polls: coarse
// enough to be free next to the per-step propensity work, fine enough that
// cancellation lands in microseconds.
const cancelWindow = 4096

// ctxErr polls the run's context; nil means "keep going". The returned
// error wraps ctx.Err(), so errors.Is(err, context.Canceled) holds.
func (o *Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	select {
	case <-o.ctx.Done():
		return fmt.Errorf("sim: run canceled: %w", o.ctx.Err())
	default:
		return nil
	}
}

// Option mutates Options.
type Option func(*Options)

// WithMaxSteps bounds the number of reaction firings.
func WithMaxSteps(n int64) Option { return func(o *Options) { o.MaxSteps = n } }

// WithSeed sets the RNG seed.
func WithSeed(s uint64) Option { return func(o *Options) { o.Seed = s } }

// WithSilentSteps sets the silence-based convergence criterion.
func WithSilentSteps(n int64) Option { return func(o *Options) { o.SilentSteps = n } }

// WithProgress attaches a progress.Reporter to the run (see
// Options.Progress).
func WithProgress(r progress.Reporter) Option { return func(o *Options) { o.Progress = r } }

// DefaultMaxSteps is the step budget of a trial, crnsim and /v1/simulate.
const DefaultMaxSteps = 50_000_000

func buildOptions(opts []Option) Options {
	o := Options{MaxSteps: DefaultMaxSteps, Seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// compiledSim holds the dense tables the simulators need. Every table is a
// view of state memoized on the CRN itself behind sync.Once guards — the
// merged reactant rows (crn.ReactantsAt, the single source of
// merged-reactant semantics, so applicability and propensity always agree)
// and the reaction→reaction dependency lists (crn.DependentsAt) that make
// per-step propensity and applicable-set maintenance O(dependents of the
// fired reaction) instead of O(reactions). The per-reaction output deltas
// (backing the silence criterion's "every applicable reaction is
// output-neutral" check) are computed in newCompiledSim — and the whole
// compiledSim is itself memoized on the CRN (see compileSim), so a run pays
// the O(reactions) assembly at most once per CRN, not once per call.
type compiledSim struct {
	reactants   [][]crn.IdxCoeff
	deps        [][]int32
	outIdx      int
	outDelta    []int64 // net output change of each reaction
	outChanging []int32 // reactions with outDelta != 0
}

// compileSim returns the per-CRN compiled view, memoized on the CRN itself
// behind its sync.Once-guarded sim slot: the first simulation run on a CRN
// builds the view, every later Gillespie/FairRandom call (ensembles of short
// replicates included) reuses it at zero cost. The view is immutable after
// build, so sharing it across concurrent ensemble trials is safe.
func compileSim(c *crn.CRN) *compiledSim {
	return c.SimSlot(func() any { return newCompiledSim(c) }).(*compiledSim)
}

func newCompiledSim(c *crn.CRN) *compiledSim {
	nR := c.NumReactions()
	cs := &compiledSim{
		reactants: make([][]crn.IdxCoeff, nR),
		deps:      make([][]int32, nR),
		outIdx:    c.OutputIndex(),
		outDelta:  make([]int64, nR),
	}
	for ri := 0; ri < nR; ri++ {
		cs.reactants[ri] = c.ReactantsAt(ri)
		cs.deps[ri] = c.DependentsAt(ri)
		for _, d := range c.DeltaAt(ri) {
			if d.Idx == cs.outIdx {
				cs.outDelta[ri] = d.Coeff
			}
		}
		if cs.outDelta[ri] != 0 {
			cs.outChanging = append(cs.outChanging, int32(ri))
		}
	}
	return cs
}

// outputSilent reports the second half of the SilentSteps contract: no
// currently-applicable reaction can change the output count. Only the
// precompiled output-changing reactions are probed.
func (cs *compiledSim) outputSilent(c *crn.CRN, counts []int64) bool {
	for _, ri := range cs.outChanging {
		if c.ApplicableAt(counts, int(ri)) {
			return false
		}
	}
	return true
}

// propensityOn returns the mass-action combinatorial count for the merged
// reactant row terms in the dense count row: the number of distinct reactant
// multisets, Π_species (n choose k) (falling factorials over factorials).
func propensityOn(terms []crn.IdxCoeff, counts []int64) float64 {
	p := 1.0
	for _, t := range terms {
		n := counts[t.Idx]
		if n < t.Coeff {
			return 0
		}
		for j := int64(0); j < t.Coeff; j++ {
			p *= float64(n - j)
		}
		for j := int64(2); j <= t.Coeff; j++ {
			p /= float64(j)
		}
	}
	if math.IsInf(p, 0) || math.IsNaN(p) {
		return math.MaxFloat64 / 2
	}
	return p
}

// propensityAt returns the mass-action combinatorial count for reaction ri
// in the dense count row.
func (cs *compiledSim) propensityAt(counts []int64, ri int) float64 {
	return propensityOn(cs.reactants[ri], counts)
}

// Gillespie runs the exact stochastic simulation algorithm (direct method)
// from the given configuration until no reaction is applicable, the silence
// criterion fires, or the step budget is exhausted. All rate constants are
// taken as 1; propensities are the combinatorial counts
// Π_species C(S) choose coeff × coeff!  (i.e. falling factorials), the
// standard mass-action form for discrete CRNs.
//
// Propensities are maintained incrementally: firing a reaction only
// recomputes the propensities of reactions sharing a species with its net
// change (the compiled dependency graph), with a periodic full refresh
// bounding floating-point drift in the running total. All randomness —
// including the exponential waiting times — is drawn from the seeded
// generator, so same-seed runs reproduce steps, simulated time, and final
// configuration exactly.
func Gillespie(start crn.Config, opts ...Option) Result {
	r, _ := gillespie(start, buildOptions(opts)) // no ctx attached: cannot fail
	return r
}

// GillespieCtx is Gillespie under a cancellation context, polled every
// cancelWindow steps: a canceled run returns a zero Result and a wrapped
// ctx.Err(), and a completed same-seed run is bit-identical to Gillespie's.
func GillespieCtx(ctx context.Context, start crn.Config, opts ...Option) (Result, error) {
	o := buildOptions(opts)
	o.ctx = ctx
	return gillespie(start, o)
}

func gillespie(start crn.Config, o Options) (Result, error) {
	rng := rand.New(rand.NewPCG(o.Seed, 0x9E3779B97F4A7C15))
	c := start.CRN()
	cs := compileSim(c)
	counts := slices.Clone([]int64(start.CountsRef()))
	nR := c.NumReactions()
	props := make([]float64, nR)

	total := 0.0
	refresh := func() {
		total = 0
		for ri := 0; ri < nR; ri++ {
			props[ri] = cs.propensityAt(counts, ri)
			total += props[ri]
		}
	}
	refresh()

	var steps int64
	var t float64
	var silent int64
	lastY := counts[cs.outIdx]
	// Propensities are integers, so the running total is exact while it
	// stays below 2^53; the periodic refresh covers the regime beyond that.
	const refreshEvery = 1 << 16

	for steps < o.MaxSteps {
		if steps%cancelWindow == 0 {
			if steps > 0 {
				progress.Post(o.Progress, "sim", steps, o.MaxSteps)
			}
			if err := o.ctxErr(); err != nil {
				return Result{}, err
			}
		}
		if total <= 0 {
			refresh()
			if total <= 0 {
				return Result{Final: c.DenseConfig(counts), Steps: steps, Time: t, Converged: true}, nil
			}
		}
		// Exponential waiting time with rate = total propensity.
		t += rng.ExpFloat64() / total
		ri := pick(props, rng.Float64()*total)
		if ri < 0 {
			// Drift left a positive total over all-zero propensities;
			// resynchronize and retry (the convergence check above fires if
			// the system is truly dead).
			refresh()
			continue
		}
		c.ApplyInto(counts, counts, ri)
		steps++
		if steps%refreshEvery == 0 {
			refresh()
		} else {
			for _, rj := range cs.deps[ri] {
				np := cs.propensityAt(counts, int(rj))
				total += np - props[rj]
				props[rj] = np
			}
		}
		if y := counts[cs.outIdx]; y != lastY {
			lastY = y
			silent = 0
		} else {
			silent++
		}
		// Both halves of the SilentSteps contract: the output has been
		// unchanged long enough AND no applicable reaction could still change
		// it. Applicability is probed exactly (not via the drift-prone
		// incremental propensities).
		if o.SilentSteps > 0 && silent >= o.SilentSteps && cs.outputSilent(c, counts) {
			return Result{Final: c.DenseConfig(counts), Steps: steps, Time: t, Converged: true}, nil
		}
	}
	return Result{Final: c.DenseConfig(counts), Steps: steps, Time: t, Converged: false}, nil
}

// pick selects the reaction whose propensity interval contains u, scanning
// only positive entries so drift in the running total can never select an
// inapplicable reaction. Returns -1 if every propensity is zero.
func pick(props []float64, u float64) int {
	last := -1
	for ri, p := range props {
		if p <= 0 {
			continue
		}
		last = ri
		u -= p
		if u < 0 {
			return ri
		}
	}
	return last
}

// FairRandom runs a uniform-random applicable-reaction scheduler: at each
// step one applicable reaction is chosen uniformly at random. Under this
// scheduler every infinitely-often-reachable configuration is reached with
// probability 1, so for stably-computing CRNs the final output is f(x) with
// probability 1. This is cheaper than Gillespie and preserves the
// reachability semantics (which are rate-independent).
//
// The applicable set is maintained incrementally: firing a reaction only
// re-probes the applicability of reactions sharing a species with its net
// change (the compiled dependency graph), O(dependents) per step instead of
// a full O(reactions) walk. The set is kept sorted ascending — exactly the
// order the full walk produced — so same-seed runs reproduce the
// pre-incremental step sequences bit for bit.
func FairRandom(start crn.Config, opts ...Option) Result {
	r, _ := fairRandom(start, buildOptions(opts)) // no ctx attached: cannot fail
	return r
}

// FairRandomCtx is FairRandom under a cancellation context, polled every
// cancelWindow steps: a canceled run returns a zero Result and a wrapped
// ctx.Err(), and a completed same-seed run is bit-identical to FairRandom's.
func FairRandomCtx(ctx context.Context, start crn.Config, opts ...Option) (Result, error) {
	o := buildOptions(opts)
	o.ctx = ctx
	return fairRandom(start, o)
}

func fairRandom(start crn.Config, o Options) (Result, error) {
	rng := rand.New(rand.NewPCG(o.Seed, 0xDA942042E4DD58B5))
	c := start.CRN()
	cs := compileSim(c)
	counts := slices.Clone([]int64(start.CountsRef()))
	nR := c.NumReactions()

	isApp := make([]bool, nR)
	applicable := make([]int32, 0, nR)
	for ri := 0; ri < nR; ri++ {
		if c.ApplicableAt(counts, ri) {
			isApp[ri] = true
			applicable = append(applicable, int32(ri))
		}
	}

	var steps int64
	var silent int64
	lastY := counts[cs.outIdx]

	for steps < o.MaxSteps {
		if steps%cancelWindow == 0 {
			if steps > 0 {
				progress.Post(o.Progress, "sim", steps, o.MaxSteps)
			}
			if err := o.ctxErr(); err != nil {
				return Result{}, err
			}
		}
		if len(applicable) == 0 {
			return Result{Final: c.DenseConfig(counts), Steps: steps, Converged: true}, nil
		}
		ri := int(applicable[rng.IntN(len(applicable))])
		c.ApplyInto(counts, counts, ri)
		steps++
		for _, rj := range cs.deps[ri] {
			now := c.ApplicableAt(counts, int(rj))
			if now == isApp[rj] {
				continue
			}
			isApp[rj] = now
			k, _ := slices.BinarySearch(applicable, rj)
			if now {
				applicable = slices.Insert(applicable, k, rj)
			} else {
				applicable = slices.Delete(applicable, k, k+1)
			}
		}
		if y := counts[cs.outIdx]; y != lastY {
			lastY = y
			silent = 0
		} else {
			silent++
		}
		if o.SilentSteps > 0 && silent >= o.SilentSteps && cs.outputSilent(c, counts) {
			return Result{Final: c.DenseConfig(counts), Steps: steps, Converged: true}, nil
		}
	}
	return Result{Final: c.DenseConfig(counts), Steps: steps, Converged: false}, nil
}

// Scheduler selects the next reaction to fire among the applicable ones.
// Returning -1 stops the run. Used to build adversarial schedules.
type Scheduler func(cur crn.Config, applicable []int, step int64) int

// RunScheduled drives a simulation with a custom scheduler.
func RunScheduled(start crn.Config, sched Scheduler, opts ...Option) Result {
	o := buildOptions(opts)
	cur := start.Clone()
	var applicable []int
	var steps int64
	for steps < o.MaxSteps {
		if steps%cancelWindow == 0 && steps > 0 {
			progress.Post(o.Progress, "sim", steps, o.MaxSteps)
		}
		applicable = cur.ApplicableReactions(applicable)
		if len(applicable) == 0 {
			return Result{Final: cur, Steps: steps, Converged: true}
		}
		ri := sched(cur, applicable, steps)
		if ri < 0 {
			return Result{Final: cur, Steps: steps, Converged: false}
		}
		found := false
		for _, a := range applicable {
			if a == ri {
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sim: scheduler chose inapplicable reaction %d", ri))
		}
		cur.ApplyInPlace(ri)
		steps++
	}
	return Result{Final: cur, Steps: steps, Converged: false}
}

// PreferScheduler returns a Scheduler that always fires the applicable
// reaction whose index appears earliest in priority; reactions not listed
// are considered last in index order. Used to realize adversarial reaction
// orders such as the max-CRN overshoot of Section 1.2.
func PreferScheduler(priority []int) Scheduler {
	rank := make(map[int]int, len(priority))
	for i, ri := range priority {
		rank[ri] = i
	}
	return func(_ crn.Config, applicable []int, _ int64) int {
		best := applicable[0]
		bestRank := rankOf(rank, best)
		for _, ri := range applicable[1:] {
			if r := rankOf(rank, ri); r < bestRank {
				best, bestRank = ri, r
			}
		}
		return best
	}
}

func rankOf(rank map[int]int, ri int) int {
	if r, ok := rank[ri]; ok {
		return r
	}
	return 1 << 30 // after all prioritized reactions
}
