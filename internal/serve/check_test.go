package serve

import (
	"testing"

	"crncompose/internal/classify"
	"crncompose/internal/core"
	"crncompose/internal/synth"
)

// BenchmarkResolveCheck times the serve.resolve layer, resolveCheck's parse
// to canonical key, which is all a cached /v1/check runs before its lookup.
// The requests carry the Lemma 6.2 constructions of min (34 reactions) and
// fig7 (47 reactions) at classifier bound 8 and threshold 2, the CRNs the
// check-hot benchmark cycles.
func BenchmarkResolveCheck(b *testing.B) {
	for _, fn := range []string{"min", "fig7"} {
		f, err := core.Lookup(fn)
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := synth.General(f, synth.GeneralOptions{Classify: classify.Options{Bound: 8}, N: 2})
		if err != nil {
			b.Fatal(err)
		}
		req := CheckRequest{CRN: c.String(), Func: fn}
		b.Run(fn, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := resolveCheck(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
