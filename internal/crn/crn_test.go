package crn

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"crncompose/internal/vec"
)

func minCRN() *CRN {
	return MustNew([]Species{"X1", "X2"}, "Y", "", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []Term{{Coeff: 1, Sp: "Y"}}},
	})
}

func maxCRN() *CRN {
	return MustNew([]Species{"X1", "X2"}, "Y", "", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "X1"}}, Products: []Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "X2"}}, Products: []Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
	})
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*CRN, error)
		wantErr string
	}{
		{"missing output", func() (*CRN, error) {
			return New([]Species{"X"}, "", "", nil)
		}, "missing output"},
		{"duplicate input", func() (*CRN, error) {
			return New([]Species{"X", "X"}, "Y", "", nil)
		}, "duplicate input"},
		{"zero coefficient", func() (*CRN, error) {
			return New([]Species{"X"}, "Y", "", []Reaction{
				{Reactants: []Term{{Coeff: 0, Sp: "X"}}, Products: []Term{{Coeff: 1, Sp: "Y"}}},
			})
		}, "nonpositive coefficient"},
		{"empty reaction", func() (*CRN, error) {
			return New([]Species{"X"}, "Y", "", []Reaction{{}})
		}, "empty"},
		{"ok", func() (*CRN, error) { return minCRN(), nil }, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want contains %q", err, tc.wantErr)
			}
		})
	}
}

func TestObliviousPredicates(t *testing.T) {
	if !minCRN().IsOutputOblivious() {
		t.Error("min CRN should be output-oblivious")
	}
	if maxCRN().IsOutputOblivious() {
		t.Error("max CRN consumes Y")
	}
	if maxCRN().IsOutputMonotonic() {
		t.Error("max CRN decreases Y")
	}
	// Catalytic output: monotonic but not oblivious.
	cat := MustNew([]Species{"X"}, "Y", "", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "Y"}, {Coeff: 1, Sp: "X"}}, Products: []Term{{Coeff: 1, Sp: "Y"}, {Coeff: 1, Sp: "B"}}},
	})
	if cat.IsOutputOblivious() {
		t.Error("catalytic CRN should not be oblivious")
	}
	if !cat.IsOutputMonotonic() {
		t.Error("catalytic CRN should be monotonic")
	}
}

func TestInitialConfig(t *testing.T) {
	c := MustNew([]Species{"X1", "X2"}, "Y", "L", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []Term{{Coeff: 1, Sp: "Y"}}},
	})
	cfg := c.MustInitialConfig(vec.New(3, 5))
	if cfg.Count("X1") != 3 || cfg.Count("X2") != 5 || cfg.Count("L") != 1 || cfg.Count("Y") != 0 {
		t.Errorf("initial config wrong: %s", cfg)
	}
	if _, err := c.InitialConfig(vec.New(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := c.InitialConfig(vec.New(-1, 0)); err == nil {
		t.Error("negative input accepted")
	}
}

func TestApplyAndApplicability(t *testing.T) {
	c := minCRN()
	cfg := c.MustInitialConfig(vec.New(2, 1))
	if !cfg.Applicable(0) {
		t.Fatal("min reaction should be applicable")
	}
	next := cfg.Apply(0)
	if next.Count("X1") != 1 || next.Count("X2") != 0 || next.Output() != 1 {
		t.Errorf("after firing: %s", next)
	}
	// Original is unchanged (Apply is pure).
	if cfg.Count("X1") != 2 {
		t.Error("Apply mutated its receiver")
	}
	if next.Applicable(0) {
		t.Error("reaction applicable without X2")
	}
	if !next.IsTerminal() {
		t.Error("config should be terminal")
	}
}

func TestApplyPanicsWhenInapplicable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Apply on inapplicable reaction should panic")
		}
	}()
	c := minCRN()
	cfg := c.MustInitialConfig(vec.New(0, 0))
	cfg.Apply(0)
}

func TestTraceReplay(t *testing.T) {
	c := maxCRN()
	cfg := c.MustInitialConfig(vec.New(1, 1))
	tr := Trace{Start: cfg, Reactions: []int{0, 1, 2, 3}}
	final, err := tr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if final.Output() != 1 {
		t.Errorf("max(1,1) trace gave %d outputs", final.Output())
	}
	// Inapplicable trace errors out.
	bad := Trace{Start: cfg, Reactions: []int{2}}
	if _, err := bad.Replay(); err == nil {
		t.Error("inapplicable trace replayed")
	}
}

func TestAdditiveReachability(t *testing.T) {
	// Property (Section 2.2): if A →* B via trace α then A+C →* B+C via
	// the same α.
	c := maxCRN()
	err := quick.Check(func(a1, a2, c1, c2 uint8) bool {
		x := vec.New(int64(a1%4), int64(a2%4))
		extra := vec.New(int64(c1%4), int64(c2%4))
		start := c.MustInitialConfig(x)
		tr := Trace{Start: start, Reactions: greedyTrace(start, 8)}
		end, err := tr.Replay()
		if err != nil {
			return false
		}
		// Shift by extra inputs.
		shifted, err := tr.ReplayFrom(c.MustInitialConfig(x.Add(extra)))
		if err != nil {
			return false
		}
		diff := shifted.Counts().Sub(end.Counts())
		want := c.MustInitialConfig(x.Add(extra)).Counts().Sub(start.Counts())
		return diff.Eq(want)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// greedyTrace fires the first applicable reaction up to n times.
func greedyTrace(cfg Config, n int) []int {
	var seq []int
	cur := cfg.Clone()
	for i := 0; i < n; i++ {
		fired := false
		for ri := range cur.CRN().Reactions {
			if cur.Applicable(ri) {
				cur.ApplyInPlace(ri)
				seq = append(seq, ri)
				fired = true
				break
			}
		}
		if !fired {
			break
		}
	}
	return seq
}

func TestConfigKeyAndString(t *testing.T) {
	c := minCRN()
	a := c.MustInitialConfig(vec.New(1, 2))
	b := c.MustInitialConfig(vec.New(1, 2))
	if a.Key() != b.Key() {
		t.Error("equal configs have different keys")
	}
	if a.Key() == c.MustInitialConfig(vec.New(2, 1)).Key() {
		t.Error("distinct configs share a key")
	}
	if s := a.String(); !strings.Contains(s, "X1") || !strings.Contains(s, "X2") {
		t.Errorf("String = %q", s)
	}
}

func TestReactionAccessors(t *testing.T) {
	r := Reaction{
		Reactants: []Term{{Coeff: 2, Sp: "X"}, {Coeff: 1, Sp: "L"}},
		Products:  []Term{{Coeff: 3, Sp: "Y"}, {Coeff: 1, Sp: "L"}},
	}
	if r.R("X") != 2 || r.P("Y") != 3 || r.Net("L") != 0 || r.Net("X") != -2 {
		t.Errorf("accessors wrong: R(X)=%d P(Y)=%d Net(L)=%d", r.R("X"), r.P("Y"), r.Net("L"))
	}
	if r.Order() != 3 {
		t.Errorf("order = %d", r.Order())
	}
	if got := r.String(); got != "2X + L -> 3Y + L" {
		t.Errorf("String = %q", got)
	}
}

func TestSpeciesUniverse(t *testing.T) {
	c := maxCRN()
	list := c.SpeciesList()
	want := []Species{"K", "X1", "X2", "Y", "Z1", "Z2"}
	if len(list) != len(want) {
		t.Fatalf("species = %v", list)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("species = %v, want %v", list, want)
		}
	}
	if c.Index("K") < 0 || c.Index("missing") != -1 {
		t.Error("Index lookup wrong")
	}
}

func TestStringRoundtripFormat(t *testing.T) {
	c := MustNew([]Species{"X"}, "Y", "L", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "L"}, {Coeff: 1, Sp: "X"}}, Products: []Term{{Coeff: 1, Sp: "Y"}}},
	})
	s := c.String()
	for _, frag := range []string{"#input X", "#output Y", "#leader L", "L + X -> Y"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestConcurrentLazyIndexBuild(t *testing.T) {
	// The species index and compiled reaction tables are built lazily, on
	// first use after New; the reachability engine's parallel workers and
	// sim ensembles may race to that first call. Hit it from many
	// goroutines under -race.
	c := MustNew([]Species{"X1", "X2"}, "Y", "", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "X1"}, {Coeff: 1, Sp: "X2"}}, Products: []Term{{Coeff: 1, Sp: "Y"}}},
		{Reactants: []Term{{Coeff: 2, Sp: "Y"}}, Products: []Term{{Coeff: 1, Sp: "K"}}},
	})
	var wg sync.WaitGroup
	got := make([]int, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.NumSpecies() + c.Index("Y") + c.OutputIndex()
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d saw %d, goroutine 0 saw %d", i, got[i], got[0])
		}
	}
	if c.NumSpecies() != 4 {
		t.Fatalf("species universe = %d, want 4", c.NumSpecies())
	}
}

func TestDependentsAtSoundAndMemoized(t *testing.T) {
	// DependentsAt(ri) must list exactly the reactions whose applicability
	// can change when ri fires: those consuming a species ri's delta touches.
	c := MustNew([]Species{"X1", "X2"}, "Y", "", []Reaction{
		{Reactants: []Term{{Coeff: 1, Sp: "X1"}}, Products: []Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "X2"}}, Products: []Term{{Coeff: 1, Sp: "Z2"}, {Coeff: 1, Sp: "Y"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "Z1"}, {Coeff: 1, Sp: "Z2"}}, Products: []Term{{Coeff: 1, Sp: "K"}}},
		{Reactants: []Term{{Coeff: 1, Sp: "K"}, {Coeff: 1, Sp: "Y"}}, Products: nil},
	})
	for ri := 0; ri < c.NumReactions(); ri++ {
		var want []int32
		for rj := 0; rj < c.NumReactions(); rj++ {
			overlaps := false
			for _, d := range c.DeltaAt(ri) {
				for _, rc := range c.ReactantsAt(rj) {
					if d.Idx == rc.Idx {
						overlaps = true
					}
				}
			}
			if overlaps {
				want = append(want, int32(rj))
			}
		}
		got := c.DependentsAt(ri)
		if !slices.Equal(got, want) {
			t.Errorf("DependentsAt(%d) = %v, want %v", ri, got, want)
		}
		if !slices.IsSorted(got) {
			t.Errorf("DependentsAt(%d) not sorted: %v", ri, got)
		}
	}
	// The graph is built once and shared: repeated calls return the same
	// backing array (sync.Once memoization, not a rebuild).
	a, b := c.DependentsAt(2), c.DependentsAt(2)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("DependentsAt rebuilt its result instead of returning the memoized table")
	}
}
