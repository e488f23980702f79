package reach

import (
	"math"
	"slices"
	"testing"
)

// TestRowCodecWidths pins the codec at every width boundary: a row packs
// exactly at the narrowest width rowWidth names, refuses every narrower
// one, and decodes back to the same counts at that width and every wider
// one — whole, field by field, and after widening.
func TestRowCodecWidths(t *testing.T) {
	for _, tc := range []struct {
		counts []int64
		w      int
	}{
		{[]int64{0, 0}, 1},
		{[]int64{255, 3}, 1},
		{[]int64{1, 256}, 2},
		{[]int64{65_535, 0}, 2},
		{[]int64{65_536, 7}, 4},
		{[]int64{math.MaxUint32, 1}, 4},
		{[]int64{math.MaxUint32 + 1, 1}, 8},
		{[]int64{math.MaxInt64, 0}, 8},
		{[]int64{-1, 0}, 8}, // not a valid count, but it round-trips
	} {
		if got := rowWidth(tc.counts); got != tc.w {
			t.Fatalf("rowWidth(%v) = %d, want %d", tc.counts, got, tc.w)
		}
		for _, w := range []int{1, 2, 4, 8} {
			packed := make([]byte, len(tc.counts)*w)
			if fits := packRow(packed, tc.counts, w); fits != (w >= tc.w) {
				t.Fatalf("packRow(%v) at width %d reports fit %v", tc.counts, w, fits)
			}
			if w < tc.w {
				continue
			}
			got := make([]int64, len(tc.counts))
			if unpackRow(got, packed, w); !slices.Equal(got, tc.counts) {
				t.Fatalf("width %d: %v decodes to %v", w, tc.counts, got)
			}
			for i, x := range tc.counts {
				if c := unpackCount(packed, w, i); c != x {
					t.Fatalf("width %d: count %d decodes to %d, want %d", w, i, c, x)
				}
			}
			if w != 8 {
				wide := widen(packed, w, 8)
				if unpackRow(got, wide, 8); !slices.Equal(got, tc.counts) {
					t.Fatalf("widened %d→8: %v decodes to %v", w, tc.counts, got)
				}
			}
		}
	}
}
