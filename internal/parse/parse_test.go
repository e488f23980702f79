package parse

import (
	"strings"
	"testing"

	"crncompose/internal/crn"
)

func TestParseMinCRN(t *testing.T) {
	src := `
# min of two inputs (Fig 1)
#input X1 X2
#output Y
X1 + X2 -> Y
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 2 || c.Output != "Y" || c.Leader != "" {
		t.Fatalf("roles wrong: %+v", c)
	}
	if len(c.Reactions) != 1 || c.Reactions[0].String() != "X1 + X2 -> Y" {
		t.Fatalf("reactions wrong: %v", c.Reactions)
	}
	if !c.IsOutputOblivious() {
		t.Error("parsed min CRN should be output-oblivious")
	}
}

func TestParseCoefficientsAndLeader(t *testing.T) {
	src := `#input X
#output Y
#leader L
L -> 3Y + P0
P0 + 2 X -> P1
2Y -> Y
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Leader != "L" {
		t.Errorf("leader = %q", c.Leader)
	}
	r := c.Reactions[1]
	if r.R("X") != 2 {
		t.Errorf("coefficient of X = %d, want 2", r.R("X"))
	}
	if c.IsOutputOblivious() {
		t.Error("2Y -> Y consumes output")
	}
}

func TestParseEmptySides(t *testing.T) {
	for _, arrowRHS := range []string{"0", "∅"} {
		src := "#input X\n#output Y\nK + Y -> " + arrowRHS + "\nX -> Y\n"
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", arrowRHS, err)
		}
		if len(c.Reactions[0].Products) != 0 {
			t.Errorf("%q: products = %v", arrowRHS, c.Reactions[0].Products)
		}
	}
}

func TestParseUnicodeArrow(t *testing.T) {
	c, err := Parse("#input X\n#output Y\nX → 2Y\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Reactions[0].P("Y") != 2 {
		t.Error("unicode arrow parse failed")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, src, frag string
	}{
		{"no output", "#input X\nX -> Y\n", "missing #output"},
		{"no arrow", "#output Y\nX Y\n", "missing arrow"},
		{"bad species", "#output Y\n2 -> Y\n", "name"},
		{"empty term", "#output Y\nX + -> Y\n", "empty term"},
		{"bare output directive", "#output\nX -> Y\n", "#output needs"},
		{"bare leader directive", "#output Y\n#leader\nX -> Y\n", "#leader needs"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error = %v, want contains %q", err, tc.frag)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	// Parse(s).String() must reparse to the same CRN.
	srcs := []string{
		"#input X1 X2\n#output Y\nX1 + X2 -> Y\n",
		"#input X\n#output Y\n#leader L\nL -> 2Y + S0\nS0 + X -> Y + S1\n",
		"#input X\n#output Y\n3X -> 0\nX -> Y\n",
	}
	for _, src := range srcs {
		c1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Parse(c1.String())
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, c1.String())
		}
		if c1.String() != c2.String() {
			t.Fatalf("round trip drift:\n%s\nvs\n%s", c1.String(), c2.String())
		}
	}
}

func TestParseReactionNames(t *testing.T) {
	// Species with subscripts/primes used by the synthesizer must parse.
	r, err := parseReaction("C12 + X1 -> 2Y + C13")
	if err != nil {
		t.Fatal(err)
	}
	if r.R("C12") != 1 || r.P("C13") != 1 {
		t.Errorf("parsed: %v", r)
	}
	if _, err := parseReaction("L -> L0"); err != nil {
		t.Error(err)
	}
}

func TestFormatSynthesizedCRN(t *testing.T) {
	c := crn.MustNew([]crn.Species{"X"}, "Y", "L", []crn.Reaction{
		{Reactants: []crn.Term{{Coeff: 1, Sp: "L"}}, Products: []crn.Term{{Coeff: 2, Sp: "Y"}, {Coeff: 1, Sp: "S0"}}},
	})
	got, err := Parse(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Reactions[0].P("Y") != 2 {
		t.Error("format/parse mismatch")
	}
}
