package dist

import (
	"slices"
	"testing"

	"crncompose/internal/reach"
)

// enumerate returns the grid's inputs in canonical (lexicographic) order.
func enumerate(lo, hi []int64) [][]int64 {
	if _, err := reach.GridPoints(len(lo), lo, hi); err != nil {
		return nil
	}
	var out [][]int64
	x := slices.Clone(lo)
	for {
		out = append(out, slices.Clone(x))
		i := len(x) - 1
		for i >= 0 {
			x[i]++
			if x[i] <= hi[i] {
				break
			}
			x[i] = lo[i]
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// TestSplitGridPreservesGridOrder is the property the deterministic merge
// rests on: concatenating the rectangles' enumerations, in rectangle order,
// must reproduce the whole grid's canonical enumeration exactly.
func TestSplitGridPreservesGridOrder(t *testing.T) {
	cases := []struct {
		lo, hi []int64
		target int
	}{
		{[]int64{0}, []int64{20}, 4},
		{[]int64{0}, []int64{20}, 21},
		{[]int64{0}, []int64{3}, 16}, // more shards than first-axis values
		{[]int64{0, 0}, []int64{3, 3}, 5},
		{[]int64{0, 0}, []int64{1, 7}, 6}, // short first axis, long second
		{[]int64{0, 0}, []int64{2, 9}, 4}, // 3 slabs sharing target 4: shares 1,2,1
		{[]int64{2, 1}, []int64{5, 4}, 3}, // nonzero lower bounds
		{[]int64{0, 0, 0}, []int64{2, 2, 2}, 10},
		{[]int64{0, 0}, []int64{0, 0}, 8}, // single-point grid
		{[]int64{0, 0}, []int64{4, 4}, 1}, // single shard
		{nil, nil, 4},                     // 0-arity grid: one empty input
	}
	for _, tc := range cases {
		rects := SplitGrid(tc.lo, tc.hi, tc.target)
		if len(rects) == 0 {
			t.Fatalf("SplitGrid(%v,%v,%d) returned no rects", tc.lo, tc.hi, tc.target)
		}
		var got [][]int64
		for i, r := range rects {
			if r.ID != i {
				t.Fatalf("rect %d has ID %d", i, r.ID)
			}
			got = append(got, enumerate(r.Lo, r.Hi)...)
		}
		want := enumerate(tc.lo, tc.hi)
		if len(tc.lo) == 0 {
			want = [][]int64{{}}
			got = nil
			for _, r := range rects {
				if len(r.Lo) != 0 || len(r.Hi) != 0 {
					t.Fatalf("0-arity rect %v", r)
				}
				got = append(got, []int64{})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("SplitGrid(%v,%v,%d): %d inputs, want %d", tc.lo, tc.hi, tc.target, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("SplitGrid(%v,%v,%d): input %d is %v, want %v", tc.lo, tc.hi, tc.target, i, got[i], want[i])
			}
		}
		if tc.target >= 1 && len(rects) > tc.target {
			t.Fatalf("SplitGrid(%v,%v,%d) produced %d rects, contract is at most %d",
				tc.lo, tc.hi, tc.target, len(rects), tc.target)
		}
	}
}
