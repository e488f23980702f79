package dist

import "slices"

// SplitGrid partitions the grid lo ≤ x ≤ hi into at most target (and at
// least min(target, first-axis extent)) axis-aligned rectangles whose
// concatenation, in returned order, enumerates the grid in exactly canonical
// (lexicographic) grid order — the property the deterministic merge depends
// on. It splits along the first axis (the most significant coordinate in
// grid order) into contiguous intervals; when that axis has fewer values
// than target, it fixes each value and distributes the remaining target
// across the slabs recursively. Rectangle IDs number the result 0..n-1 in
// grid order.
func SplitGrid(lo, hi []int64, target int) []Rect {
	var out []Rect
	splitInto(lo, hi, target, &out)
	for i := range out {
		out[i].ID = i
	}
	return out
}

func splitInto(lo, hi []int64, target int, out *[]Rect) {
	if len(lo) == 0 || target <= 1 {
		*out = append(*out, Rect{Lo: slices.Clone(lo), Hi: slices.Clone(hi)})
		return
	}
	extent := hi[0] - lo[0] + 1
	if extent >= int64(target) {
		for k := 0; k < target; k++ {
			r := Rect{Lo: slices.Clone(lo), Hi: slices.Clone(hi)}
			r.Lo[0] = lo[0] + extent*int64(k)/int64(target)
			r.Hi[0] = lo[0] + extent*int64(k+1)/int64(target) - 1
			*out = append(*out, r)
		}
		return
	}
	// Fewer first-axis values than requested rectangles: one slab per value,
	// the target distributed across slabs (slab k gets its share of the
	// floor-division lattice, so the shares sum to exactly target and each
	// is ≥ 1 — the "at most target" contract holds inductively).
	for k, v := 0, lo[0]; v <= hi[0]; k, v = k+1, v+1 {
		share := target*(k+1)/int(extent) - target*k/int(extent)
		var tail []Rect
		splitInto(lo[1:], hi[1:], share, &tail)
		for _, t := range tail {
			*out = append(*out, Rect{
				Lo: append([]int64{v}, t.Lo...),
				Hi: append([]int64{v}, t.Hi...),
			})
		}
	}
}
