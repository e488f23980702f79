package crn

import (
	"fmt"
	"sort"
	"strings"

	"crncompose/internal/vec"
)

// Config is a configuration: the molecular count of every species, densely
// indexed by the owning CRN's species table. A Config is only meaningful
// together with the CRN that produced it.
type Config struct {
	counts vec.V
	crn    *CRN
}

// InitialConfig returns the initial configuration I_x of Section 2.2:
// count x(i) of each input species X_i, count 1 of the leader (if any), and
// count 0 of everything else.
func (c *CRN) InitialConfig(x vec.V) (Config, error) {
	if len(x) != len(c.Inputs) {
		return Config{}, fmt.Errorf("crn: input arity mismatch: CRN takes %d inputs, got %d", len(c.Inputs), len(x))
	}
	if !x.Nonnegative() {
		return Config{}, fmt.Errorf("crn: negative input %v", x)
	}
	c.buildIndex()
	counts := make(vec.V, len(c.species))
	for i, in := range c.Inputs {
		counts[c.index[in]] += x[i]
	}
	if c.Leader != "" {
		counts[c.index[c.Leader]]++
	}
	return Config{counts: counts, crn: c}, nil
}

// MustInitialConfig is InitialConfig that panics on error.
func (c *CRN) MustInitialConfig(x vec.V) Config {
	cfg, err := c.InitialConfig(x)
	if err != nil {
		panic(err)
	}
	return cfg
}

// ConfigFromCounts builds a configuration from an explicit species→count
// map. Species not in the CRN's universe are rejected.
func (c *CRN) ConfigFromCounts(counts map[Species]int64) (Config, error) {
	c.buildIndex()
	v := make(vec.V, len(c.species))
	for sp, n := range counts {
		i, ok := c.index[sp]
		if !ok {
			return Config{}, fmt.Errorf("crn: unknown species %q", sp)
		}
		if n < 0 {
			return Config{}, fmt.Errorf("crn: negative count %d for %q", n, sp)
		}
		v[i] = n
	}
	return Config{counts: v, crn: c}, nil
}

// DenseConfig wraps a dense count vector as a Config without copying. The
// vector is indexed by the CRN's species table (see SpeciesList) and must
// have exactly NumSpecies components. The Config borrows the slice: callers
// must not mutate it afterwards. This is the arena accessor used by the
// reachability engine, which stores all configurations in one flat backing
// array.
func (c *CRN) DenseConfig(counts vec.V) Config {
	c.buildIndex()
	if len(counts) != len(c.species) {
		panic(fmt.Sprintf("crn: dense config has %d components, CRN has %d species", len(counts), len(c.species)))
	}
	return Config{counts: counts, crn: c}
}

// OutputIndex returns the dense index of the output species.
func (c *CRN) OutputIndex() int { return c.Index(c.Output) }

// NumReactions returns the number of reactions.
func (c *CRN) NumReactions() int { return len(c.Reactions) }

// ApplicableAt reports whether reaction ri can fire in the raw count row
// counts (indexed like a dense configuration). It is the allocation-free
// hot-path twin of Config.Applicable. It does not build the CRN's index:
// counts must come from a call that does (InitialConfig, DenseConfig,
// NumSpecies, ...), since New leaves the index to its first use.
func (c *CRN) ApplicableAt(counts []int64, ri int) bool {
	for _, rc := range c.compiled[ri].reactants {
		if counts[rc.Idx] < rc.Coeff {
			return false
		}
	}
	return true
}

// ApplyInto writes src + delta(ri) into dst, where src is a raw count row in
// which reaction ri is applicable (not checked). dst and src must have equal
// length and may alias. No allocation. Like ApplicableAt it does not build
// the CRN's index: src must come from an index-building call.
func (c *CRN) ApplyInto(dst, src []int64, ri int) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	for _, d := range c.compiled[ri].delta {
		dst[d.Idx] += d.Coeff
	}
}

// CRN returns the owning network.
func (cf Config) CRN() *CRN { return cf.crn }

// Count returns the count of sp (0 for unknown species).
func (cf Config) Count(sp Species) int64 {
	i := cf.crn.Index(sp)
	if i < 0 {
		return 0
	}
	return cf.counts[i]
}

// Output returns the count of the output species Y.
func (cf Config) Output() int64 { return cf.Count(cf.crn.Output) }

// Counts returns a copy of the dense count vector.
func (cf Config) Counts() vec.V { return cf.counts.Clone() }

// CountsRef returns the underlying count vector without copying. Callers
// must not mutate it; this exists for hot paths in the simulator and
// reachability explorer.
func (cf Config) CountsRef() vec.V { return cf.counts }

// Clone returns an independent copy of the configuration.
func (cf Config) Clone() Config {
	return Config{counts: cf.counts.Clone(), crn: cf.crn}
}

// Total returns the total molecular count.
func (cf Config) Total() int64 { return cf.counts.Sum() }

// Key returns a canonical string key for the configuration, suitable for
// deduplication in reachability search.
func (cf Config) Key() string { return cf.counts.Key() }

// Leq reports pointwise cf ≤ other. Both must belong to the same CRN.
func (cf Config) Leq(other Config) bool {
	if cf.crn != other.crn {
		panic("crn: comparing configurations of different CRNs")
	}
	return cf.counts.Leq(other.counts)
}

// Add returns cf + other (additivity of configurations; used with the
// additive reachability property A→*B ⇒ A+C→*B+C).
func (cf Config) Add(other Config) Config {
	if cf.crn != other.crn {
		panic("crn: adding configurations of different CRNs")
	}
	return Config{counts: cf.counts.Add(other.counts), crn: cf.crn}
}

// Applicable reports whether reaction ri can fire in cf (R ≤ C).
func (cf Config) Applicable(ri int) bool {
	cr := cf.crn.compiled[ri]
	for _, rc := range cr.reactants {
		if cf.counts[rc.Idx] < rc.Coeff {
			return false
		}
	}
	return true
}

// Apply returns the configuration yielded by firing reaction ri
// (C' = C - R + P). It panics if the reaction is not applicable.
func (cf Config) Apply(ri int) Config {
	if !cf.Applicable(ri) {
		panic(fmt.Sprintf("crn: reaction %d (%s) not applicable in %s", ri, cf.crn.Reactions[ri], cf))
	}
	out := cf.counts.Clone()
	for _, d := range cf.crn.compiled[ri].delta {
		out[d.Idx] += d.Coeff
	}
	return Config{counts: out, crn: cf.crn}
}

// ApplyInPlace fires reaction ri, mutating cf's counts. The caller must own
// the configuration exclusively. It panics if the reaction is not applicable.
func (cf *Config) ApplyInPlace(ri int) {
	if !cf.Applicable(ri) {
		panic(fmt.Sprintf("crn: reaction %d (%s) not applicable in %s", ri, cf.crn.Reactions[ri], cf))
	}
	for _, d := range cf.crn.compiled[ri].delta {
		cf.counts[d.Idx] += d.Coeff
	}
}

// ApplicableReactions returns the indices of all reactions applicable in cf.
// The scratch slice, if non-nil, is reused to avoid allocation.
func (cf Config) ApplicableReactions(scratch []int) []int {
	out := scratch[:0]
	for ri := range cf.crn.compiled {
		if cf.Applicable(ri) {
			out = append(out, ri)
		}
	}
	return out
}

// IsTerminal reports whether no reaction is applicable in cf.
func (cf Config) IsTerminal() bool {
	for ri := range cf.crn.compiled {
		if cf.Applicable(ri) {
			return false
		}
	}
	return true
}

// String renders nonzero counts as "{2 X, 1 L}" sorted by species name.
func (cf Config) String() string {
	type entry struct {
		sp Species
		n  int64
	}
	var entries []entry
	for i, n := range cf.counts {
		if n != 0 {
			entries = append(entries, entry{cf.crn.species[i], n})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].sp < entries[j].sp })
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%d %s", e.n, e.sp)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Trace is a finite reaction sequence from a starting configuration,
// recording each fired reaction index. Traces witness reachability.
type Trace struct {
	Start     Config
	Reactions []int
}

// Replay applies the trace and returns the final configuration, or an error
// if some step is inapplicable.
func (t Trace) Replay() (Config, error) {
	cur := t.Start.Clone()
	for step, ri := range t.Reactions {
		if !cur.Applicable(ri) {
			return Config{}, fmt.Errorf("crn: trace step %d: reaction %d (%s) not applicable in %s",
				step, ri, cur.crn.Reactions[ri], cur)
		}
		cur.ApplyInPlace(ri)
	}
	return cur, nil
}

// ReplayFrom applies the trace's reaction sequence starting from an
// alternative configuration start ≥ t.Start; by additivity of reachability
// the sequence remains applicable. Returns an error otherwise.
func (t Trace) ReplayFrom(start Config) (Config, error) {
	shifted := Trace{Start: start, Reactions: t.Reactions}
	return shifted.Replay()
}

// String renders the trace as a sequence of reaction strings.
func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "from %s:\n", t.Start)
	for _, ri := range t.Reactions {
		fmt.Fprintf(&sb, "  %s\n", t.Start.crn.Reactions[ri])
	}
	return sb.String()
}
