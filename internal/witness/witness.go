// Package witness implements the impossibility tool of Section 4 of the
// paper. Lemma 4.1: if there is an increasing sequence (a_1, a_2, ...) in
// N^d such that for all i < j some Δ_ij ∈ N^d has
//
//	f(a_i + Δ_ij) − f(a_i) > f(a_j + Δ_ij) − f(a_j),
//
// then f is not obliviously-computable. The package searches for such
// contradiction sequences on bounded prefixes, and — reproducing Fig 6 —
// converts a contradiction into an explicit reaction trace that forces a
// concrete output-oblivious CRN to overproduce its output.
package witness

import (
	"fmt"
	"strings"

	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/vec"
)

// Func is an integer-valued function on N^d.
type Func func(x vec.V) int64

// Contradiction is a finite prefix of a Lemma 4.1 contradiction sequence:
// K points a_i = Base + i·Step (i = 1..K, Step > 0 in at least one
// component) together with, for every pair i < j, a witness Δ_ij violating
// the "later inputs gain at least as much" condition.
type Contradiction struct {
	Base vec.V
	Step vec.V
	K    int
	// Delta[pairKey(i,j)] is Δ_ij (1-based i < j).
	Delta map[[2]int]vec.V
}

// Points returns a_1..a_K.
func (c *Contradiction) Points() []vec.V {
	out := make([]vec.V, c.K)
	for i := 1; i <= c.K; i++ {
		out[i-1] = c.Base.Add(c.Step.Scale(int64(i)))
	}
	return out
}

// Verify re-checks the defining inequality for every pair against f.
func (c *Contradiction) Verify(f Func) error {
	pts := c.Points()
	for i := 1; i <= c.K; i++ {
		for j := i + 1; j <= c.K; j++ {
			d, ok := c.Delta[[2]int{i, j}]
			if !ok {
				return fmt.Errorf("witness: missing Δ_%d%d", i, j)
			}
			ai, aj := pts[i-1], pts[j-1]
			lhs := f(ai.Add(d)) - f(ai)
			rhs := f(aj.Add(d)) - f(aj)
			if lhs <= rhs {
				return fmt.Errorf("witness: pair (%d,%d) with Δ=%v: %d ≤ %d", i, j, d, lhs, rhs)
			}
		}
	}
	return nil
}

// String summarizes the contradiction.
func (c *Contradiction) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Lemma 4.1 contradiction: a_i = %v + i·%v, i = 1..%d\n", c.Base, c.Step, c.K)
	for i := 1; i <= c.K; i++ {
		for j := i + 1; j <= c.K; j++ {
			if d, ok := c.Delta[[2]int{i, j}]; ok {
				fmt.Fprintf(&sb, "  Δ_{%d,%d} = %v\n", i, j, d)
			}
		}
	}
	return sb.String()
}

// SearchOptions bound the contradiction search.
type SearchOptions struct {
	// K is the sequence prefix length to certify (default 5).
	K int
	// BaseBound bounds each coordinate of the base point (default 2).
	BaseBound int64
	// DeltaBound bounds each coordinate of Δ candidates (default K+4).
	DeltaBound int64
}

func (o *SearchOptions) defaults() {
	if o.K == 0 {
		o.K = 5
	}
	if o.BaseBound == 0 {
		o.BaseBound = 2
	}
	if o.DeltaBound == 0 {
		o.DeltaBound = int64(o.K) + 4
	}
}

// Search looks for a contradiction sequence for f : N^d → N. It tries step
// directions from the nonzero 0/1 vectors, base points in [0, BaseBound]^d,
// and Δ candidates in [0, DeltaBound]^d. A non-nil result certifies the
// Lemma 4.1 inequality for all pairs i < j ≤ K; nil means no contradiction
// was found within the bounds (not a proof of computability).
func Search(f Func, d int, opts SearchOptions) *Contradiction {
	opts.defaults()
	var steps []vec.V
	vec.Grid(vec.Zero(d), vec.Const(d, 1), func(s vec.V) bool {
		if !s.IsZero() {
			steps = append(steps, s.Clone())
		}
		return true
	})
	var found *Contradiction
	vec.Grid(vec.Zero(d), vec.Const(d, opts.BaseBound), func(base vec.V) bool {
		for _, step := range steps {
			if c := tryCandidate(f, base.Clone(), step, opts); c != nil {
				found = c
				return false
			}
		}
		return true
	})
	return found
}

func tryCandidate(f Func, base, step vec.V, opts SearchOptions) *Contradiction {
	d := len(base)
	c := &Contradiction{Base: base, Step: step, K: opts.K, Delta: make(map[[2]int]vec.V)}
	pts := c.Points()
	for i := 1; i <= opts.K; i++ {
		for j := i + 1; j <= opts.K; j++ {
			ai, aj := pts[i-1], pts[j-1]
			fi, fj := f(ai), f(aj)
			var delta vec.V
			vec.Grid(vec.Zero(d), vec.Const(d, opts.DeltaBound), func(dd vec.V) bool {
				if f(ai.Add(dd))-fi > f(aj.Add(dd))-fj {
					delta = dd.Clone()
					return false
				}
				return true
			})
			if delta == nil {
				return nil
			}
			c.Delta[[2]int{i, j}] = delta
		}
	}
	return c
}

// Overproduction is an explicit reaction trace demonstrating Lemma 4.1's
// conclusion on a concrete CRN (Fig 6): starting from the initial
// configuration for input AjPlusDelta, the trace reaches a configuration
// whose output strictly exceeds f(AjPlusDelta); since the CRN is
// output-oblivious the excess can never be consumed, so the CRN cannot
// stably compute f.
type Overproduction struct {
	I, J        int   // the Dickson pair indices into the contradiction
	Ai, Aj      vec.V // a_i ≤ a_j with stable configs O_i ≤ O_j
	Delta       vec.V
	AjPlusDelta vec.V
	Want        int64 // f(a_j + Δ)
	Got         int64 // output produced by the trace (> Want)
	Trace       crn.Trace
}

// String summarizes the overproduction certificate.
func (o *Overproduction) String() string {
	return fmt.Sprintf(
		"overproduction: input %v should give %d but the schedule below yields %d\n(Dickson pair a_%d=%v ≤ a_%d=%v, Δ=%v)\n%s",
		o.AjPlusDelta, o.Want, o.Got, o.I, o.Ai, o.J, o.Aj, o.Delta, o.Trace)
}

// BuildOverproduction mechanizes the proof of Lemma 4.1 against a concrete
// output-oblivious CRN c claimed to stably compute f. It:
//
//  1. for each a_i, finds a stable configuration O_i with output f(a_i)
//     (via exhaustive reachability);
//  2. finds i < j with O_i ≤ O_j (guaranteed for long sequences by
//     Dickson's lemma);
//  3. runs the same reaction sequence from I_{a_i+Δ} = I_{a_i} + D reaching
//     C_i = O_i + D, extends it by a sequence α producing the additional
//     f(a_i+Δ) − f(a_i) outputs;
//  4. replays the O_j-trace plus α from I_{a_j+Δ} (applicable since
//     C_i ≤ C_j), overproducing output.
//
// It returns an error if c is not output-oblivious, if exploration budgets
// are exceeded, or if no Dickson pair exists within the contradiction
// prefix.
func BuildOverproduction(c *crn.CRN, f Func, con *Contradiction, opts ...reach.Option) (*Overproduction, error) {
	if !c.IsOutputOblivious() {
		return nil, fmt.Errorf("witness: CRN is not output-oblivious")
	}
	pts := con.Points()
	// 1. Stable configurations O_i and the traces reaching them.
	type stableInfo struct {
		cfg   crn.Config
		trace crn.Trace
	}
	stables := make([]stableInfo, len(pts))
	for idx, a := range pts {
		root, err := c.InitialConfig(a)
		if err != nil {
			return nil, err
		}
		g := reach.Explore(root, opts...)
		if !g.Complete {
			return nil, fmt.Errorf("witness: exploration from %v incomplete", a)
		}
		found := false
		for _, id := range g.StableIDs() {
			if g.Output(id) == f(a) {
				stables[idx] = stableInfo{cfg: g.Config(id), trace: g.TraceTo(id)}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("witness: no stable configuration with output f(%v)=%d; CRN does not stably compute f", a, f(a))
		}
	}
	// 2. Dickson pair on the O_i count vectors.
	counts := make([]vec.V, len(stables))
	for i, s := range stables {
		counts[i] = s.cfg.Counts()
	}
	pi, pj := vec.FindNondecreasingPair(counts)
	if pi < 0 {
		return nil, fmt.Errorf("witness: no Dickson pair among %d stable configurations; increase the contradiction prefix K", len(stables))
	}
	i, j := pi+1, pj+1 // 1-based
	delta, ok := con.Delta[[2]int{i, j}]
	if !ok {
		return nil, fmt.Errorf("witness: contradiction lacks Δ_{%d,%d}", i, j)
	}
	ai, aj := pts[pi], pts[pj]

	// 3. C_i = O_i + D where D = I_{a_i+Δ} − I_{a_i} (the extra inputs).
	ci, err := stables[pi].trace.ReplayFrom(c.MustInitialConfig(ai.Add(delta)))
	if err != nil {
		return nil, fmt.Errorf("witness: replaying O_i trace with extra inputs: %w", err)
	}
	// α: from C_i, reach output f(a_i + Δ).
	targetY := f(ai.Add(delta))
	gi := reach.Explore(ci, opts...)
	if !gi.Complete {
		return nil, fmt.Errorf("witness: exploration from C_i incomplete")
	}
	var alpha []int
	foundAlpha := false
	for id := int32(0); id < int32(gi.NumConfigs()); id++ {
		if gi.Output(id) == targetY {
			alpha = gi.TraceTo(id).Reactions
			foundAlpha = true
			break
		}
	}
	if !foundAlpha {
		return nil, fmt.Errorf("witness: cannot produce %d outputs from C_i; CRN does not stably compute f(%v)", targetY, ai.Add(delta))
	}

	// 4. Replay O_j's trace from I_{a_j+Δ}, then α (applicable since
	// C_i ≤ C_j componentwise).
	full := crn.Trace{
		Start:     c.MustInitialConfig(aj.Add(delta)),
		Reactions: append(append([]int(nil), stables[pj].trace.Reactions...), alpha...),
	}
	final, err := full.Replay()
	if err != nil {
		return nil, fmt.Errorf("witness: overproduction trace not applicable (C_i ≰ C_j?): %w", err)
	}
	want := f(aj.Add(delta))
	if final.Output() <= want {
		return nil, fmt.Errorf("witness: trace produced %d ≤ f(%v) = %d; no overproduction", final.Output(), aj.Add(delta), want)
	}
	return &Overproduction{
		I: i, J: j, Ai: ai, Aj: aj,
		Delta:       delta,
		AjPlusDelta: aj.Add(delta),
		Want:        want,
		Got:         final.Output(),
		Trace:       full,
	}, nil
}
