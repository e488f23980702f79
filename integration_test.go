package crncompose

// End-to-end integration tests: full describe → classify → synthesize →
// model-check pipelines over the function library, mutation-based failure
// injection against the verifier, 3D classification, and cross-validation
// between the model checker and the stochastic simulator.

import (
	"errors"
	"testing"

	"crncompose/internal/classify"
	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/figures"
	"crncompose/internal/parse"
	"crncompose/internal/rat"
	"crncompose/internal/reach"
	"crncompose/internal/semilinear"
	"crncompose/internal/sim"
	"crncompose/internal/synth"
	"crncompose/internal/vec"
)

// TestPipelineLibrary compiles and verifies every computable library
// function end to end.
func TestPipelineLibrary(t *testing.T) {
	tests := []struct {
		name   string
		bound  int64
		n      int64
		hi     int64
		skip1D bool
	}{
		{name: "identity", hi: 12},
		{name: "double", hi: 10},
		{name: "min1", hi: 10},
		{name: "floor3x2", hi: 12},
		{name: "min", bound: 8, n: 1, hi: 2},
		{name: "fig7", bound: 8, n: 2, hi: 1},
		{name: "sumplusmin", bound: 8, n: 1, hi: 1},
	}
	lib := core.Library()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := lib[tc.name]
			if f == nil {
				t.Fatalf("missing library function %q", tc.name)
			}
			sys, err := core.Compile(f, core.CompileOptions{Bound: tc.bound, N: tc.n})
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Net.IsOutputOblivious() {
				t.Fatal("not output-oblivious")
			}
			res, err := sys.Verify(0, tc.hi, reach.WithMaxConfigs(1<<22))
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatal(res)
			}
		})
	}
}

// TestPipelineRejections checks the negative side of Theorem 5.2 for the
// paper's counterexamples.
func TestPipelineRejections(t *testing.T) {
	for _, name := range []string{"max", "eq2"} {
		t.Run(name, func(t *testing.T) {
			_, err := core.Compile(core.Library()[name], core.CompileOptions{})
			var nce *synth.NotComputableError
			if !errors.As(err, &nce) {
				t.Fatalf("err = %v", err)
			}
			if nce.Result.Contradiction == nil {
				t.Fatal("no contradiction")
			}
		})
	}
}

// TestMutationInjection verifies the model checker catches seeded bugs:
// each mutant perturbs one coefficient or product of a correct CRN and must
// be refuted on some small input.
func TestMutationInjection(t *testing.T) {
	spec, err := synth.FitOneDim(func(x int64) int64 { return 3 * x / 2 }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := synth.OneDim(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x []int64) int64 { return 3 * x[0] / 2 }

	res, err := reach.CheckGrid(good, f, []int64{0}, []int64{10})
	if err != nil || !res.OK() {
		t.Fatalf("baseline CRN wrong: %v %v", err, res)
	}

	mutants := 0
	caught := 0
	for ri := range good.Reactions {
		for _, mutate := range []func(r crn.Reaction) (crn.Reaction, bool){
			dropOneOutput, addSpuriousOutput,
		} {
			m, ok := mutate(cloneReaction(good.Reactions[ri]))
			if !ok {
				continue
			}
			mutated := cloneCRNWithReaction(t, good, ri, m)
			mutants++
			res, err := reach.CheckGrid(mutated, f, []int64{0}, []int64{10})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				caught++
			}
		}
	}
	if mutants == 0 {
		t.Fatal("no mutants generated")
	}
	if caught != mutants {
		t.Errorf("verifier caught %d of %d seeded mutants", caught, mutants)
	}
}

func cloneReaction(r crn.Reaction) crn.Reaction {
	return crn.Reaction{
		Reactants: append([]crn.Term(nil), r.Reactants...),
		Products:  append([]crn.Term(nil), r.Products...),
		Name:      r.Name,
	}
}

// dropOneOutput removes one Y from the products (if present).
func dropOneOutput(r crn.Reaction) (crn.Reaction, bool) {
	for i, p := range r.Products {
		if p.Sp == "Y" {
			if p.Coeff == 1 {
				r.Products = append(r.Products[:i], r.Products[i+1:]...)
			} else {
				r.Products[i].Coeff--
			}
			return r, true
		}
	}
	return r, false
}

// addSpuriousOutput adds one extra Y to the products.
func addSpuriousOutput(r crn.Reaction) (crn.Reaction, bool) {
	r.Products = append(r.Products, crn.Term{Coeff: 1, Sp: "Y"})
	return r, true
}

func cloneCRNWithReaction(t *testing.T, c *crn.CRN, ri int, m crn.Reaction) *crn.CRN {
	t.Helper()
	rs := make([]crn.Reaction, len(c.Reactions))
	copy(rs, c.Reactions)
	rs[ri] = m
	out, err := crn.New(c.Inputs, c.Output, c.Leader, rs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClassify3D exercises the Section 7 machinery in three dimensions,
// beyond the paper's 2D examples.
func TestClassify3D(t *testing.T) {
	// min(x1, x2, x3): nondecreasing, eventually min of 3 affine terms,
	// with under-determined regions of recession-cone dimensions 1 and 2.
	le12 := semilinear.Threshold{A: vec.New(-1, 1, 0), B: 0} // x1 ≤ x2
	le13 := semilinear.Threshold{A: vec.New(-1, 0, 1), B: 0} // x1 ≤ x3
	le23 := semilinear.Threshold{A: vec.New(0, -1, 1), B: 0} // x2 ≤ x3
	g1 := rat.NewVec(rat.One(), rat.Zero(), rat.Zero())
	g2 := rat.NewVec(rat.Zero(), rat.One(), rat.Zero())
	g3 := rat.NewVec(rat.Zero(), rat.Zero(), rat.One())
	f := semilinear.MustNew(3, "min3",
		semilinear.Piece{Domain: semilinear.And{Ops: []semilinear.Formula{le12, le13}}, Grad: g1, Off: rat.Zero()},
		semilinear.Piece{Domain: semilinear.And{Ops: []semilinear.Formula{semilinear.Not{Op: le12}, le23}}, Grad: g2, Off: rat.Zero()},
		semilinear.Piece{Domain: semilinear.Or{Ops: []semilinear.Formula{
			semilinear.And{Ops: []semilinear.Formula{le12, semilinear.Not{Op: le13}}},
			semilinear.And{Ops: []semilinear.Formula{semilinear.Not{Op: le12}, semilinear.Not{Op: le23}}},
		}}, Grad: g3, Off: rat.Zero()},
	)
	if err := f.ValidateOn(vec.Zero(3), vec.Const(3, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := classify.Analyze(f, classify.Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Computable {
		t.Fatalf("min3 rejected: %s", res.Reason)
	}
	hi := res.N.Add(vec.Const(3, 6))
	vec.Grid(res.N, hi, func(x vec.V) bool {
		want := min(x[0], min(x[1], x[2]))
		if got := res.EventualMin.Eval(x); got != want {
			t.Fatalf("min3 normal form wrong at %v: %d ≠ %d", x, got, want)
		}
		return true
	})
	// max in 3D is rejected just like in 2D.
	fmax := semilinear.MustNew(3, "max3",
		semilinear.Piece{Domain: semilinear.Or{Ops: []semilinear.Formula{
			semilinear.And{Ops: []semilinear.Formula{le12, le23}},
			semilinear.And{Ops: []semilinear.Formula{semilinear.Not{Op: le12}, le13}},
		}}, Grad: g3, Off: rat.Zero()},
		semilinear.Piece{Domain: semilinear.And{Ops: []semilinear.Formula{le12, semilinear.Not{Op: le23}}}, Grad: g2, Off: rat.Zero()},
		semilinear.Piece{Domain: semilinear.And{Ops: []semilinear.Formula{semilinear.Not{Op: le12}, semilinear.Not{Op: le13}}}, Grad: g1, Off: rat.Zero()},
	)
	if err := fmax.ValidateOn(vec.Zero(3), vec.Const(3, 6)); err != nil {
		t.Fatal(err)
	}
	resMax, err := classify.Analyze(fmax, classify.Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resMax.Computable {
		t.Fatal("max3 accepted")
	}
}

// TestCheckerSimulatorAgreement cross-validates the model checker against
// the stochastic simulator on the Theorem 3.1 construction.
func TestCheckerSimulatorAgreement(t *testing.T) {
	f := func(x int64) int64 { return x/2 + min(x, 3) }
	spec, err := synth.FitOneDim(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := synth.OneDim(spec)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x <= 20; x++ {
		v := reach.CheckInput(c.MustInitialConfig(vec.New(x)), f(x))
		if !v.OK {
			t.Fatalf("model checker refutes x=%d: %v", x, v.Err)
		}
		r := sim.Gillespie(c.MustInitialConfig(vec.New(x)), sim.WithSeed(uint64(x)))
		if !r.Converged || r.Final.Output() != f(x) {
			t.Fatalf("simulator disagrees at x=%d: %d", x, r.Final.Output())
		}
	}
}

// TestSynthesizedCRNsRoundTripThroughParser ensures every synthesized CRN
// can be serialized and reparsed without loss.
func TestSynthesizedCRNsRoundTripThroughParser(t *testing.T) {
	sys, err := core.Compile(semilinear.Fig4a(), core.CompileOptions{Bound: 8, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := sys.Net.String()
	back, err := parse.Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v", err)
	}
	if back.String() != text {
		t.Fatal("round trip drift")
	}
	if back.NumSpecies() != sys.Net.NumSpecies() || len(back.Reactions) != len(sys.Net.Reactions) {
		t.Fatal("structure changed in round trip")
	}
}

// TestFiguresAll regenerates every figure and sanity-checks invariants on
// the emitted data.
func TestFiguresAll(t *testing.T) {
	tables, err := figures.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Fatalf("%d tables, want 10 (Figs 1,2,3a,3b,4a,4b,5,6,7,8)", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.Name)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: ragged row", tb.Name)
			}
		}
	}
	// Spot invariants: fig3a CRN output equals g everywhere.
	for _, tb := range tables {
		switch tb.Name {
		case "fig3a":
			for _, row := range tb.Rows {
				if row[1] != row[2] {
					t.Errorf("fig3a: CRN output %s ≠ g %s at x=%s", row[2], row[1], row[0])
				}
			}
		case "fig4a":
			for _, row := range tb.Rows {
				if row[2] != row[3] {
					t.Errorf("fig4a: min-of-terms %s ≠ f %s at (%s,%s)", row[3], row[2], row[0], row[1])
				}
			}
		case "fig7":
			for _, row := range tb.Rows {
				if row[2] != row[6] {
					t.Errorf("fig7: min %s ≠ f %s at (%s,%s)", row[6], row[2], row[0], row[1])
				}
			}
		}
	}
}

// TestAdditivityAcrossPipeline is the paper's key reachability property
// (A →* B ⇒ A+C →* B+C) exercised on a synthesized CRN.
func TestAdditivityAcrossPipeline(t *testing.T) {
	spec, err := synth.FitOneDim(func(x int64) int64 { return 2 * x }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := synth.OneDim(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := c.MustInitialConfig(vec.New(3))
	g := reach.Explore(start)
	for id := 0; id < g.NumConfigs(); id++ {
		tr := g.TraceTo(int32(id))
		// Adding 2 extra inputs keeps the trace applicable.
		bigger := c.MustInitialConfig(vec.New(5))
		if _, err := tr.ReplayFrom(bigger); err != nil {
			t.Fatalf("additivity violated: %v", err)
		}
	}
}
