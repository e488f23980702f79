package parse

import (
	"fmt"
	"strings"
	"testing"

	"crncompose/internal/crn"
)

// referenceString is the fmt-based renderer crn.(*CRN).String replaced,
// kept as the test oracle for the canonical text: that text is part of
// every /v1/check content address, so the appending renderer must produce
// it byte for byte (TestStringMatchesReference, FuzzParse).
func referenceString(c *crn.CRN) string {
	var sb strings.Builder
	names := make([]string, len(c.Inputs))
	for i, in := range c.Inputs {
		names[i] = string(in)
	}
	fmt.Fprintf(&sb, "#input %s\n", strings.Join(names, " "))
	fmt.Fprintf(&sb, "#output %s\n", c.Output)
	if c.Leader != "" {
		fmt.Fprintf(&sb, "#leader %s\n", c.Leader)
	}
	for _, r := range c.Reactions {
		sb.WriteString(referenceSide(r.Reactants) + " -> " + referenceSide(r.Products))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func referenceSide(ts []crn.Term) string {
	if len(ts) == 0 {
		return "0"
	}
	parts := make([]string, 0, len(ts))
	for _, t := range ts {
		if t.Coeff == 1 {
			parts = append(parts, string(t.Sp))
		} else {
			parts = append(parts, fmt.Sprintf("%d%s", t.Coeff, t.Sp))
		}
	}
	return strings.Join(parts, " + ")
}

// TestStringMatchesReference pins the canonical text on the shapes the
// renderer special-cases. FuzzParse extends the check to every document
// Parse accepts.
func TestStringMatchesReference(t *testing.T) {
	for name, src := range map[string]string{
		"zero inputs":    "#output Y\nL -> Y\n",
		"leader":         "#input X\n#output Y\n#leader L\nL + X -> Y\n",
		"coefficients":   "#input X1 X2\n#output Y\n12 X1 + X2 -> 3Y + 1000000007Z\n",
		"zero side":      "#input X\n#output Y\n2X -> 0\n0 -> Y\n",
		"catalysts":      "#input X\n#output Y\n#leader L\nL + X -> L + 2Y\nK + K -> K + Y\n",
		"several inputs": "#input A B C D\n#output Y\nA + B + C + D -> Y\n",
	} {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := c.String(), referenceString(c); got != want {
			t.Errorf("%s: String() = %q, reference %q", name, got, want)
		}
	}
	// The zero-input form keeps the directive's trailing space.
	if c, err := Parse("#output Y\nX -> Y\n"); err != nil || !strings.HasPrefix(c.String(), "#input \n") {
		t.Fatalf("zero-input CRN renders %q (err %v)", c, err)
	}
}
