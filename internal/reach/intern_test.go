package reach

import (
	"slices"
	"testing"
)

// TestInternerCollisions drives lookupOrAdd with hashes the test chooses
// instead of rowHash, so rows collide in each way a slot can:
//   - distinct rows with the identical full hash;
//   - hashes with equal tags and different low bits;
//   - hashes with the same home slot in every table size and different tags.
//
// It interns enough rows to double the table several times and widens the
// arena midway, then requires ids to be dense in interning order, every
// row and record to survive, and every row to be found again exactly once.
func TestInternerCollisions(t *testing.T) {
	const d, n = 2, 4000
	counts := func(i int) []int64 {
		if i >= n/2 {
			return []int64{int64(i), 1} // over 255: the second half widens the arena
		}
		return []int64{int64(i % 256), int64(i / 256)}
	}
	const tag = 0x5eed << 32
	hash := func(i int) uint64 {
		switch i % 3 {
		case 0:
			return tag | 7 // the identical full hash
		case 1:
			return tag | uint64(i)<<8 // the same tag, other low bits
		}
		return uint64(i)<<40 | 7 // the same home slot, other tags
	}
	in := newInterner(d, 1, 1)
	slots := len(in.slots)
	intern := func(i int) (int32, bool) {
		packed := make([]byte, d*in.w)
		if !packRow(packed, counts(i), in.w) {
			in.widen(rowWidth(counts(i)))
			packed = make([]byte, d*in.w)
			packRow(packed, counts(i), in.w)
		}
		return in.lookupOrAdd(packed, hash(i))
	}
	for i := range n {
		id, added := intern(i)
		if !added || id != int32(i) {
			t.Fatalf("row %d: interned as id %d (added %v), want new id %d", i, id, added, i)
		}
		_, set := in.record(id)
		set[0] = uint64(i)
		if j := i / 2; i%2 == 1 {
			if id, added := intern(j); added || id != int32(j) {
				t.Fatalf("row %d again: id %d (added %v), want id %d", j, id, added, j)
			}
		}
	}
	if in.n != n || in.w != 2 || len(in.slots) < 8*slots {
		t.Fatalf("%d rows at width %d in %d slots, want %d rows at width 2 in at least %d slots", in.n, in.w, len(in.slots), n, 8*slots)
	}
	got := make([]int64, d)
	for i := range n {
		if id, added := intern(i); added || id != int32(i) {
			t.Fatalf("after growth, row %d: id %d (added %v), want id %d", i, id, added, i)
		}
		if unpackRow(got, in.row(int32(i)), in.w); !slices.Equal(got, counts(i)) {
			t.Fatalf("row %d holds %v, want %v", i, got, counts(i))
		}
		if h, set := in.record(int32(i)); *h != hash(i) || set[0] != uint64(i) {
			t.Fatalf("record %d is (%#x, %d), want (%#x, %d)", i, *h, set[0], hash(i), i)
		}
	}
	if in.n != n {
		t.Fatalf("looking rows up added some: %d rows, want %d", in.n, n)
	}
}
