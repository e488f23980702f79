package sim

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"crncompose/internal/benchcrn"
	"crncompose/internal/crn"
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

func TestGillespieMin(t *testing.T) {
	start := minCRN().MustInitialConfig(vec.New(500, 300))
	r := Gillespie(start, WithSeed(7))
	if !r.Converged {
		t.Fatal("did not converge")
	}
	if got := r.Final.Output(); got != 300 {
		t.Errorf("min(500,300) = %d", got)
	}
	if r.Time <= 0 {
		t.Error("Gillespie time not advanced")
	}
}

func TestGillespieMaxConverges(t *testing.T) {
	start := maxCRN().MustInitialConfig(vec.New(40, 25))
	r := Gillespie(start, WithSeed(3))
	if !r.Converged {
		t.Fatal("did not converge")
	}
	if got := r.Final.Output(); got != 40 {
		t.Errorf("max(40,25) = %d", got)
	}
}

func TestFairRandomMatchesGillespieSemantics(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := FairRandom(maxCRN().MustInitialConfig(vec.New(12, 30)), WithSeed(seed))
		if !r.Converged || r.Final.Output() != 30 {
			t.Fatalf("seed %d: converged=%v output=%d", seed, r.Converged, r.Final.Output())
		}
	}
}

func TestDeterministicSeeding(t *testing.T) {
	start := maxCRN().MustInitialConfig(vec.New(20, 20))
	a := FairRandom(start, WithSeed(42))
	b := FairRandom(start, WithSeed(42))
	if a.Steps != b.Steps || a.Final.Key() != b.Final.Key() {
		t.Error("same seed produced different runs")
	}
}

func TestMaxStepsBudget(t *testing.T) {
	// X → X + Y never terminates; the budget must stop it.
	c := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "X"}, {Coeff: 1, Sp: "Y"}}},
	})
	r := FairRandom(c.MustInitialConfig(vec.New(1)), WithMaxSteps(100))
	if r.Converged || r.Steps != 100 {
		t.Fatalf("budget not honored: %+v", r)
	}
}

func TestSilentStepsCriterion(t *testing.T) {
	// X → X (output-neutral loop): with SilentSteps the run converges.
	c := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "X"}}},
		{Reactants: []crn.Term{{Coeff: 2, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}, {Coeff: 1, Sp: "Y"}}},
	})
	r := FairRandom(c.MustInitialConfig(vec.New(1)), WithSilentSteps(50), WithMaxSteps(10000))
	if !r.Converged {
		t.Fatal("silence criterion did not trigger")
	}
}

// silentTrapGillespie is the regression CRN for the false-convergence bug:
// an output-neutral loop whose propensity (200) drowns out an
// always-applicable output-changing reaction 2W → 2W + Y (propensity 1), so
// the output routinely sits unchanged for SilentSteps steps while a reaction
// that can change it stays applicable. The pre-fix criterion — which checked
// only the first half of the SilentSteps contract — declared Converged here.
func silentTrapGillespie(t *testing.T) crn.Config {
	t.Helper()
	c := crn.MustNew([]crn.Species{"X", "W"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "X"}}},
		{Reactants: []crn.Term{{Coeff: 2, Sp: "W"}}, Products: []crn.Term{{Coeff: 2, Sp: "W"}, {Coeff: 1, Sp: "Y"}}},
	})
	return configOf(c, map[crn.Species]int64{"X": 200, "W": 2})
}

// silentTrapFair is the FairRandom variant: twelve neutral loops dilute the
// uniform choice so the output-changing reaction fires rarely enough for
// 50-step silent streaks to occur while it remains applicable.
func silentTrapFair(t *testing.T) crn.Config {
	t.Helper()
	var rs []crn.Reaction
	counts := map[crn.Species]int64{"W": 2}
	for i := 0; i < 12; i++ {
		sp := crn.Species(fmt.Sprintf("N%02d", i))
		rs = append(rs, crn.Reaction{Reactants: []crn.Term{{Coeff: 1, Sp: sp}}, Products: []crn.Term{{Coeff: 1, Sp: sp}}})
		counts[sp] = 1
	}
	rs = append(rs, crn.Reaction{Reactants: []crn.Term{{Coeff: 2, Sp: "W"}}, Products: []crn.Term{{Coeff: 2, Sp: "W"}, {Coeff: 1, Sp: "Y"}}})
	c := crn.MustNew([]crn.Species{"W"}, "Y", "", rs)
	return configOf(c, counts)
}

// configOf builds c's configuration holding the given species counts.
func configOf(c *crn.CRN, counts map[crn.Species]int64) crn.Config {
	v := make(vec.V, c.NumSpecies())
	for sp, n := range counts {
		v[c.Index(sp)] = n
	}
	return c.DenseConfig(v)
}

func TestSilenceCriterionRequiresOutputNeutralApplicable(t *testing.T) {
	// The output-changing reaction is catalytic, hence applicable forever:
	// the silence criterion must never declare convergence, so every run
	// exhausts its step budget. On the pre-fix code each of these seeds
	// falsely returned Converged within a few hundred steps.
	gcfg := silentTrapGillespie(t)
	fcfg := silentTrapFair(t)
	for seed := uint64(1); seed <= 5; seed++ {
		r := Gillespie(gcfg, WithSeed(seed), WithSilentSteps(50), WithMaxSteps(10_000))
		if r.Converged {
			t.Errorf("gillespie seed %d: false convergence at step %d (output-changing reaction still applicable)", seed, r.Steps)
		}
		if r.Steps != 10_000 {
			t.Errorf("gillespie seed %d: stopped at %d steps without converging", seed, r.Steps)
		}
		if !r.Final.Applicable(1) {
			t.Fatalf("gillespie seed %d: trap reaction became inapplicable — CRN does not exercise the bug", seed)
		}
		fr := FairRandom(fcfg, WithSeed(seed), WithSilentSteps(50), WithMaxSteps(10_000))
		if fr.Converged {
			t.Errorf("fairrandom seed %d: false convergence at step %d", seed, fr.Steps)
		}
		if !fr.Final.Applicable(12) {
			t.Fatalf("fairrandom seed %d: trap reaction became inapplicable", seed)
		}
	}
	// The criterion must still fire when the output-changing reaction is
	// genuinely inapplicable (the sound half of the old behavior).
	c := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "X"}}},
		{Reactants: []crn.Term{{Coeff: 2, Sp: "X"}}, Products: []crn.Term{{Coeff: 2, Sp: "X"}, {Coeff: 1, Sp: "Y"}}},
	})
	start := c.MustInitialConfig(vec.New(1))
	if r := FairRandom(start, WithSilentSteps(50), WithMaxSteps(10_000)); !r.Converged {
		t.Error("fairrandom: silence criterion did not fire with only neutral reactions applicable")
	}
	if r := Gillespie(start, WithSilentSteps(50), WithMaxSteps(10_000)); !r.Converged {
		t.Error("gillespie: silence criterion did not fire with only neutral reactions applicable")
	}
}

func TestPropensityDoesNotRecompile(t *testing.T) {
	// propensityOn reads the reactant tables memoized on the CRN; after a
	// warm-up call it must not allocate (the old implementation recompiled
	// every reaction row and the dependency graph per invocation).
	cfg := maxCRN().MustInitialConfig(vec.New(5, 3))
	propensityOn(cfg.CRN().ReactantsAt(0), cfg.CountsRef())
	if n := testing.AllocsPerRun(100, func() { propensityOn(cfg.CRN().ReactantsAt(2), cfg.CountsRef()) }); n != 0 {
		t.Errorf("propensity allocates %v times per call, want 0", n)
	}
}

// fairRandomReference is the pre-incremental FairRandom step loop — a full
// ApplicableReactions walk per step — kept as the oracle that the
// incremental applicable-set maintenance reproduces its step sequences bit
// for bit (same seed ⇒ same choices ⇒ same trajectory).
func fairRandomReference(start crn.Config, o Options) Result {
	rng := rand.New(rand.NewPCG(o.Seed, 0xDA942042E4DD58B5))
	cur := start.Clone()
	var applicable []int
	var steps, silent int64
	lastY := cur.Output()
	for steps < o.MaxSteps {
		applicable = cur.ApplicableReactions(applicable)
		if len(applicable) == 0 {
			return Result{Final: cur, Steps: steps, Converged: true}
		}
		cur.ApplyInPlace(applicable[rng.IntN(len(applicable))])
		steps++
		if y := cur.Output(); y != lastY {
			lastY = y
			silent = 0
		} else {
			silent++
		}
		if o.SilentSteps > 0 && silent >= o.SilentSteps && outputNeutralApplicableOnly(cur) {
			return Result{Final: cur, Steps: steps, Converged: true}
		}
	}
	return Result{Final: cur, Steps: steps, Converged: false}
}

func outputNeutralApplicableOnly(cur crn.Config) bool {
	c := cur.CRN()
	for _, ri := range cur.ApplicableReactions(nil) {
		if c.Reactions[ri].Net(c.Output) != 0 {
			return false
		}
	}
	return true
}

func TestFairRandomIncrementalMatchesReference(t *testing.T) {
	cases := map[string]crn.Config{
		"min":       minCRN().MustInitialConfig(vec.New(40, 25)),
		"max":       maxCRN().MustInitialConfig(vec.New(30, 27)),
		"ring":      benchcrn.Ring(32).MustInitialConfig(vec.New(16)),
		"trap-fair": silentTrapFair(t),
	}
	for name, start := range cases {
		for seed := uint64(1); seed <= 8; seed++ {
			o := Options{MaxSteps: 5_000, Seed: seed, SilentSteps: 64}
			want := fairRandomReference(start, o)
			got := FairRandom(start, WithSeed(seed), WithMaxSteps(o.MaxSteps), WithSilentSteps(o.SilentSteps))
			if got.Steps != want.Steps || got.Converged != want.Converged || got.Final.Key() != want.Final.Key() {
				t.Fatalf("%s seed %d: incremental (steps=%d conv=%v %s) != reference (steps=%d conv=%v %s)",
					name, seed, got.Steps, got.Converged, got.Final, want.Steps, want.Converged, want.Final)
			}
		}
	}
}

func TestPropensityCombinatorics(t *testing.T) {
	// 2X → Y has propensity C(n,2); verify indirectly: with n=1 the
	// reaction cannot fire, with n=2 it can.
	c := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 2, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	if p := propensityOn(c.ReactantsAt(0), c.MustInitialConfig(vec.New(1)).CountsRef()); p != 0 {
		t.Errorf("propensity with 1 copy = %v", p)
	}
	if p := propensityOn(c.ReactantsAt(0), c.MustInitialConfig(vec.New(4)).CountsRef()); p != 6 {
		t.Errorf("propensity with 4 copies = %v, want C(4,2)=6", p)
	}
	if p := propensityOn(c.ReactantsAt(0), c.MustInitialConfig(vec.New(3)).CountsRef()); p != 3 {
		t.Errorf("propensity with 3 copies = %v, want 3", p)
	}
}

func TestRunScheduledAdversarial(t *testing.T) {
	// Adversarial schedule for max: exhaust inputs through reactions 0,1
	// first; the overshoot is then corrected by reactions 2,3 — max still
	// stably computes. The scheduler witnesses the transient overshoot.
	c := maxCRN()
	var peak int64
	sched := PreferScheduler([]int{0, 1, 2, 3})
	r := RunScheduled(c.MustInitialConfig(vec.New(5, 5)), func(cur crn.Config, app []int, step int64) int {
		if y := cur.Output(); y > peak {
			peak = y
		}
		return sched(cur, app, step)
	})
	if !r.Converged {
		t.Fatal("did not converge")
	}
	if peak != 10 {
		t.Errorf("peak output %d, want 10 (full overshoot x1+x2)", peak)
	}
	if r.Final.Output() != 5 {
		t.Errorf("final output %d, want 5", r.Final.Output())
	}
}

func TestEnsembleParallel(t *testing.T) {
	start := maxCRN().MustInitialConfig(vec.New(15, 9))
	results := Ensemble(FairRandom, start, 32, 100)
	if len(results) != 32 {
		t.Fatalf("got %d results", len(results))
	}
	st := Summarize(results)
	if st.Converged != 32 || !st.AllEqual || st.MinOutput != 15 || st.MaxOutput != 15 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanSteps <= 0 || st.MedianSteps <= 0 {
		t.Error("step statistics missing")
	}
}

func TestEnsembleDeterministicAcrossRuns(t *testing.T) {
	start := maxCRN().MustInitialConfig(vec.New(8, 8))
	a := Summarize(Ensemble(FairRandom, start, 8, 999))
	b := Summarize(Ensemble(FairRandom, start, 8, 999))
	if a.MeanSteps != b.MeanSteps {
		t.Error("ensemble not reproducible with same base seed")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Trials != 0 {
		t.Error("empty summary wrong")
	}
}

func TestGillespieSameSeedFullyReproducible(t *testing.T) {
	// Waiting times must come from the seeded generator too: same seed ⇒
	// identical steps, identical simulated time (bit-for-bit), identical
	// final configuration.
	start := maxCRN().MustInitialConfig(vec.New(30, 27))
	a := Gillespie(start, WithSeed(99))
	b := Gillespie(start, WithSeed(99))
	if a.Steps != b.Steps {
		t.Fatalf("steps %d != %d", a.Steps, b.Steps)
	}
	if a.Time != b.Time {
		t.Fatalf("time %v != %v", a.Time, b.Time)
	}
	if a.Final.Key() != b.Final.Key() {
		t.Fatalf("final %s != %s", a.Final, b.Final)
	}
	if a.Time <= 0 {
		t.Fatal("time did not advance")
	}
	// And a different seed takes a different trajectory (overwhelmingly).
	c := Gillespie(start, WithSeed(100))
	if a.Steps == c.Steps && a.Time == c.Time {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPropensityDependencyGraphSound(t *testing.T) {
	// For every reaction ri and every reaction rj NOT in deps[ri], firing ri
	// must leave rj's propensity unchanged — the property that makes the
	// incremental maintenance in Gillespie exact.
	for name, c := range map[string]*crn.CRN{"min": minCRN(), "max": maxCRN()} {
		cs := compileSim(c)
		nR := c.NumReactions()
		cfgs := []vec.V{vec.New(5, 3), vec.New(1, 1), vec.New(0, 4)}
		for _, x := range cfgs {
			cfg := c.MustInitialConfig(x)
			// Walk a few steps to hit non-initial configurations too.
			for step := 0; step < 8; step++ {
				counts := cfg.CountsRef()
				for ri := 0; ri < nR; ri++ {
					if !c.ApplicableAt(counts, ri) {
						continue
					}
					after := make([]int64, len(counts))
					c.ApplyInto(after, counts, ri)
					for rj := 0; rj < nR; rj++ {
						inDeps := false
						for _, d := range cs.deps[ri] {
							if int(d) == rj {
								inDeps = true
								break
							}
						}
						if inDeps {
							continue
						}
						before := cs.propensityAt(counts, rj)
						got := cs.propensityAt(after, rj)
						if before != got {
							t.Fatalf("%s x=%v: firing %d changed propensity of %d (%v→%v) but %d ∉ deps[%d]=%v",
								name, x, ri, rj, before, got, rj, ri, cs.deps[ri])
						}
					}
				}
				app := cfg.ApplicableReactions(nil)
				if len(app) == 0 {
					break
				}
				cfg.ApplyInPlace(app[step%len(app)])
			}
		}
	}
}

func TestGillespieMergedDuplicateReactantTerms(t *testing.T) {
	// A species listed twice among the reactants must behave like one term
	// with the summed coefficient: 2 distinct X needed, propensity C(n,2).
	c := crn.MustNew([]crn.Species{"X"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X"}, {Coeff: 1, Sp: "X"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
	if p := propensityOn(c.ReactantsAt(0), c.MustInitialConfig(vec.New(1)).CountsRef()); p != 0 {
		t.Errorf("propensity with 1 copy = %v, want 0", p)
	}
	if p := propensityOn(c.ReactantsAt(0), c.MustInitialConfig(vec.New(4)).CountsRef()); p != 6 {
		t.Errorf("propensity with 4 copies = %v, want C(4,2) = 6", p)
	}
	r := Gillespie(c.MustInitialConfig(vec.New(5)), WithSeed(1))
	if !r.Converged || r.Final.Output() != 2 {
		t.Fatalf("2X→Y from 5 X: %+v", r)
	}
}

// TestCompileSimMemoizedPerCRN: the compiled per-run view is built once per
// CRN and shared by every later call (the ROADMAP "cache compiledSim per
// CRN" item), including under concurrent first compile — so ensembles of
// short replicates stop paying O(reactions) assembly per trial. Trajectory
// identity under the shared view is covered by the same-seed reproducibility
// tests above.
func TestCompileSimMemoizedPerCRN(t *testing.T) {
	c := maxCRN()
	var wg sync.WaitGroup
	got := make([]*compiledSim, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = compileSim(c)
		}()
	}
	wg.Wait()
	for i, cs := range got {
		if cs == nil || cs != got[0] {
			t.Fatalf("compileSim call %d returned %p, want the memoized %p", i, cs, got[0])
		}
	}
	if c2 := minCRN(); compileSim(c2) == compileSim(c) {
		t.Fatal("distinct CRNs share a compiled view")
	}
}
