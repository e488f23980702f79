package parse

import (
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/quilt"
	"crncompose/internal/rat"
	"crncompose/internal/synth"
)

// FuzzParse pins the text format's round trip: any document Parse accepts
// renders (c.String) to text that Parse accepts again and that renders to
// the same text. The seed corpus is the CRNs the examples/ programs build,
// the documents the tests above parse, and the TestParseErrors inputs.
func FuzzParse(f *testing.F) {
	g, err := synth.FromQuilt(quilt.MustNew(rat.NewVec(rat.New(3, 2)), 2, []rat.R{rat.Zero(), rat.New(-1, 2)}))
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*crn.CRN{
		synth.MinCRN(2), synth.MaxCRN(), synth.DoubleCRN(), synth.MinConst1Leadered(), g,
	} {
		f.Add(c.String())
	}
	for _, src := range []string{
		"#input X1 X2\n#output Y\nX1 + X2 -> Y\n",
		"#input X\n#output Y\n#leader L\nL -> 2Y + S0\nS0 + X -> Y + S1\n",
		"#input X\n#output Y\n3X -> 0\nX -> Y\n",
		"# comment\n#input X\n#output Y\n2 X → Y\n",
		"#input X\n#output Y\nX -> Y\n",
		"#output Y\nX Y\n",
		"#output Y\n2 -> Y\n",
		"#output Y\nX + -> Y\n",
		"#output\nX -> Y\n",
		"#output Y\n#leader\nX -> Y\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		text := c.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("rendered text does not parse: %v\n%s", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("round trip drift:\n%s\nvs\n%s", text, got)
		}
	})
}
