package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/semilinear"
	"crncompose/internal/synth"
	"crncompose/internal/vec"
	"crncompose/internal/witness"
)

func TestCompileVerifySimulateFig4a(t *testing.T) {
	sys, err := Compile(semilinear.Fig4a(), CompileOptions{Bound: 8, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Net.IsOutputOblivious() {
		t.Fatal("compiled CRN not output-oblivious")
	}
	res, err := sys.Verify(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal(res)
	}
	if _, err := sys.Simulate(vec.New(4, 3), 4, 77); err != nil {
		t.Fatal(err)
	}
}

func TestCompileOneDim(t *testing.T) {
	sys, err := Compile(semilinear.FloorThreeHalves(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Verify(0, 15)
	if err != nil || !res.OK() {
		t.Fatalf("%v %v", err, res)
	}
	if _, err := sys.Simulate(vec.New(101), 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsMax(t *testing.T) {
	_, err := Compile(semilinear.Max2(), CompileOptions{})
	var nce *synth.NotComputableError
	if !errors.As(err, &nce) {
		t.Fatalf("err = %v", err)
	}
	if nce.Result.Contradiction == nil {
		t.Fatal("no Lemma 4.1 contradiction attached")
	}
}

func TestRejectHelper(t *testing.T) {
	res, err := Reject(semilinear.Equation2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Contradiction == nil {
		t.Fatal("missing contradiction")
	}
	if _, err := Reject(semilinear.Min2()); err == nil {
		t.Fatal("min rejected")
	}
}

func TestDemonstrateFig6(t *testing.T) {
	// End-to-end Fig 6 via the facade: honest oblivious attempt at max.
	attempt := mustAttempt(t)
	fmax := func(x vec.V) int64 { return max(x[0], x[1]) }
	con := witness.Search(fmax, 2, witness.SearchOptions{})
	if con == nil {
		t.Fatal("no contradiction")
	}
	over, err := Demonstrate(attempt, fmax, con)
	if err != nil {
		t.Fatal(err)
	}
	if over.Got <= over.Want {
		t.Fatal("no overproduction")
	}
}

func mustAttempt(t *testing.T) *crn.CRN {
	t.Helper()
	return crn.MustNew([]crn.Species{"X1", "X2"}, "Y", "", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X1"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []crn.Term{{Coeff: 1, Sp: "X2"}}, Products: []crn.Term{{Coeff: 1, Sp: "Y"}}},
	})
}

func TestLibraryComplete(t *testing.T) {
	names := LibraryNames()
	if len(names) != len(Library()) {
		t.Fatal("name list size mismatch")
	}
	for _, want := range []string{"min", "max", "fig7", "eq2", "fig4a", "floor3x2"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("library missing %q", want)
		}
	}
	// Every library function must evaluate at the origin without panic.
	for name, f := range Library() {
		_ = f.Eval(vec.Zero(f.Dim()))
		_ = name
	}
}

// TestParseCheck pins the one resolver every front end shares: crncheck,
// /v1/check, and (through Lookup) /v1/classify, /v1/synthesize and crnsynth.
func TestParseCheck(t *testing.T) {
	const minText = "#input X1 X2\n#output Y\nX1 + X2 -> Y\n"
	for _, tc := range []struct {
		name, src, fn, wantErr string
	}{
		{"unknown function", minText, "nonsense", `unknown function "nonsense"`},
		{"arity mismatch", minText, "double", "CRN takes 2 inputs but double takes 1"},
		{"parse error", "#output Y\nX Y\n", "min", "parse"},
		{"valid", minText, "min", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, f, err := ParseCheck(tc.src, tc.fn)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || c != nil || f != nil {
					t.Fatalf("ParseCheck = %v, %v, %v; want error containing %q", c, f != nil, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Dim() != 2 || f([]int64{5, 3}) != 3 {
				t.Fatalf("resolved dim %d, min(5,3) = %d", c.Dim(), f([]int64{5, 3}))
			}
		})
	}
	if _, err := Resolve("nonsense"); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
	if f, err := Resolve("fig4a"); err != nil || f([]int64{4, 3}) != semilinear.Fig4a().Eval(vec.New(4, 3)) {
		t.Fatalf("Resolve(fig4a) = %v", err)
	}
}

// TestLibraryBuiltOnce: every call shares the same functions, and a call
// costs one map, not eleven constructions.
func TestLibraryBuiltOnce(t *testing.T) {
	a, b := Library(), Library()
	for name, f := range a {
		if b[name] != f {
			t.Fatalf("Library()[%q] differs between calls", name)
		}
		if g, _ := Lookup(name); g != f {
			t.Fatalf("Lookup(%q) differs from Library()", name)
		}
	}
	delete(a, "min")
	if _, err := Lookup("min"); err != nil {
		t.Fatal("a caller's map edit reached the shared library")
	}
	if n := testing.AllocsPerRun(100, func() { _ = Library() }); n > 4 {
		t.Fatalf("Library() allocates %v times per call, want ≤ 4", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Lookup("fig7") }); n != 0 {
		t.Fatalf("Lookup allocates %v times per call, want 0", n)
	}
}

// TestSynthesizeLeaderless: the leaderless branch is 1D only, builds no
// leader, and rejects a function outside Theorem 9.2 (Observation 9.1).
func TestSynthesizeLeaderless(t *testing.T) {
	sys, err := Synthesize(context.Background(), semilinear.FloorThreeHalves(), 0, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Net.Leader != "" || sys.Analysis != nil {
		t.Fatalf("leaderless system: leader %q, analysis %v", sys.Net.Leader, sys.Analysis)
	}
	if res, err := sys.Verify(0, 6); err != nil || !res.OK() {
		t.Fatalf("leaderless floor3x2 does not verify: %v %v", res, err)
	}
	for _, f := range []*semilinear.Func{semilinear.Min2(), semilinear.MinConst1()} {
		if _, err := Synthesize(context.Background(), f, 0, 0, true, nil); err == nil {
			t.Errorf("leaderless synthesis accepted %s", f.Name)
		}
	}
	_, err = Synthesize(context.Background(), semilinear.Max2(), 0, 0, false, nil)
	var nce *synth.NotComputableError
	if !errors.As(err, &nce) || !strings.Contains(err.Error(), "Lemma 4.1") {
		t.Fatalf("max: err = %v, want a NotComputableError carrying its contradiction", err)
	}
}
