package reach

import (
	"bytes"
	"encoding/binary"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

// requireSuccessorMatchesRecompute loads the head row counts, packed at
// width w, into a successor kernel and requires every applicable
// reaction's successor to equal a full recompute: ApplyInto, then
// MaxComponent > maxCount, then packRow or rowWidth, then the row hash of
// the whole successor.
func requireSuccessorMatchesRecompute(t *testing.T, c *crn.CRN, counts []int64, maxCount int64, w int) {
	t.Helper()
	head := make([]byte, len(counts)*w)
	if !packRow(head, counts, w) {
		t.Fatalf("head %v does not fit width %d", counts, w)
	}
	k := newSuccKernel(c, maxCount)
	k.load(head, w)
	if k.h != rowHash(counts) {
		t.Fatalf("head %v: hash %#x, rowHash %#x", counts, k.h, rowHash(counts))
	}
	next := make(vec.V, len(counts))
	want := make([]byte, len(head))
	for ri := 0; ri < c.NumReactions(); ri++ {
		if !k.applicable(ri) {
			if c.ApplicableAt(counts, ri) {
				t.Fatalf("head %v: reaction %d applicable, kernel says not", counts, ri)
			}
			continue
		}
		h, over, need := k.next(ri)
		c.ApplyInto(next, counts, ri)
		if wantH := rowHash(next); h != wantH {
			t.Fatalf("head %v, reaction %d: hash %#x, rowHash of %v %#x", counts, ri, h, next, wantH)
		}
		if wantOver := next.MaxComponent() > maxCount; over != wantOver {
			t.Fatalf("head %v, reaction %d: over = %v, successor %v max %d against %d", counts, ri, over, next, next.MaxComponent(), maxCount)
		}
		if over {
			continue
		}
		wantNeed := 0
		if !packRow(want, next, w) {
			wantNeed = rowWidth(next)
		}
		if need != wantNeed {
			t.Fatalf("head %v, reaction %d: need = %d, successor %v at width %d needs %d", counts, ri, need, next, w, wantNeed)
		}
		if need == 0 && !bytes.Equal(k.out, want) {
			t.Fatalf("head %v, reaction %d: packed %x, packRow of %v %x", counts, ri, k.out, next, want)
		}
	}
}

// FuzzSuccessor differentially tests the successor kernel against a full
// recompute of every successor. data is a CRN in FuzzVerdictPass's
// encoding (its input bytes are unused); counts holds the head's counts,
// four little-endian bytes each (missing bytes read 0), so heads reach
// every width boundary; the head is packed at the width widths[width%4]
// names or the narrowest that holds it, whichever is wider. The seed
// corpus (testdata/fuzz/FuzzSuccessor) holds a head over maxCount that the
// reaction lowers and one that it leaves alone, counts crossing 255 → 256
// and 65535 → 65536, a change to the output, and a catalytic reaction.
func FuzzSuccessor(f *testing.F) {
	widths := [4]int{1, 2, 4, 8}
	f.Fuzz(func(t *testing.T, data, counts []byte, maxCount uint32, width uint8) {
		c, _ := fuzzCRN(data)
		if c == nil {
			return
		}
		row := make([]int64, c.NumSpecies())
		for i := range row {
			var b [4]byte
			if 4*i < len(counts) {
				copy(b[:], counts[4*i:])
			}
			row[i] = int64(binary.LittleEndian.Uint32(b[:]))
		}
		w := max(widths[width%4], rowWidth(row))
		requireSuccessorMatchesRecompute(t, c, row, int64(maxCount), w)
	})
}

// TestRowHashSpreadsShards requires the row hash of rows that differ only
// in small counts — the rows an exploration interns — to fill most shards
// of the sharded interner and most slots of a small table.
func TestRowHashSpreadsShards(t *testing.T) {
	const rows, slotBits = 2000, 10
	shards := make(map[uint64]bool)
	slots := make(map[uint64]bool)
	for x := int64(0); x < rows; x++ {
		h := rowHash([]int64{x % 7, x / 7 % 5, 0, x / 35, 1})
		shards[vec.HashShard(h, shardBits)] = true
		slots[h&(1<<slotBits-1)] = true
	}
	if len(shards) < numShards*3/4 {
		t.Errorf("%d rows hit only %d/%d shards", rows, len(shards), numShards)
	}
	if len(slots) < (1<<slotBits)*3/4 {
		t.Errorf("%d rows hit only %d/%d slots", rows, len(slots), 1<<slotBits)
	}
}
