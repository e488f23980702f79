package reach

import (
	"slices"
	"testing"
)

// newInterner returns an empty interner for rows of d counts at width w
// and applicable sets of nw words, as a workspace holds one.
func newInterner(d, w, nw int) *interner {
	t := &interner{chunkedArena: *newChunkedArena(d, w, nw)}
	t.reset(w)
	return t
}

// untableHash inverts tableHash: it undoes each xor-shift and multiplies by
// each multiplier's inverse mod 2^64.
func untableHash(h uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for k := s; k < 64; k += s {
			x ^= y >> k
		}
		return x
	}
	inverse := func(m uint64) uint64 {
		x := m // correct to 3 bits for odd m; each Newton step doubles that
		for range 5 {
			x *= 2 - m*x
		}
		return x
	}
	h = unshift(h, 31) * inverse(0x94d049bb133111eb)
	h = unshift(h, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(h, 30)
}

func TestUntableHash(t *testing.T) {
	for _, h := range []uint64{0, 1, 7, 0x5eed << 32, 1<<64 - 1, 0x9e3779b97f4a7c15} {
		if got := tableHash(untableHash(h)); got != h {
			t.Fatalf("tableHash(untableHash(%#x)) = %#x", h, got)
		}
	}
}

// TestInternerCollisions drives lookupOrAdd with row hashes whose table
// hashes the test chooses (through untableHash), so rows collide in each
// way a slot can:
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
			return untableHash(tag | 7) // the identical full hash
		case 1:
			return untableHash(tag | uint64(i)<<8) // the same tag, other low bits
		}
		return untableHash(uint64(i)<<40 | 7) // the same home slot, other tags
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
