package reach

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"crncompose/internal/crn"
	"crncompose/internal/vec"
)

// fullSet is an applicable set computed from scratch: bit ri set for every
// reaction ApplicableAt allows at counts.
func fullSet(c *crn.CRN, counts []int64) []uint64 {
	set := make([]uint64, setWords(c.NumReactions()))
	for ri := range c.NumReactions() {
		if c.ApplicableAt(counts, ri) {
			set[ri/64] |= 1 << (ri % 64)
		}
	}
	return set
}

// requireSuccessorMatchesRecompute loads the head row counts, packed at
// width w, into a successor kernel with the head's record computed in full,
// and requires the kernel's set to hold exactly the applicable reactions,
// and every successor to equal a full recompute: ApplyInto,
// then MaxComponent > maxCount, then packRow or rowWidth, then the whole
// record — the row hash and the applicable set — of the successor.
func requireSuccessorMatchesRecompute(t *testing.T, c *crn.CRN, counts []int64, maxCount int64, w int) {
	t.Helper()
	head := make([]byte, len(counts)*w)
	if !packRow(head, counts, w) {
		t.Fatalf("head %v does not fit width %d", counts, w)
	}
	headSet := fullSet(c, counts)
	if _, _, h, set := packRoot(c.DenseConfig(counts)); h != rowHash(counts) || !slices.Equal(set, headSet) {
		t.Fatalf("head %v: root record %#x %x, recomputed %#x %x", counts, h, set, rowHash(counts), headSet)
	}
	k := newSuccKernel(c)
	k.maxCount = maxCount
	k.load(head, w, rowHash(counts), headSet)
	var walked, want []int
	for ri := range c.NumReactions() {
		if k.set[ri/64]&(1<<(ri%64)) != 0 {
			walked = append(walked, ri)
		}
	}
	for ri := range c.NumReactions() {
		if c.ApplicableAt(counts, ri) {
			want = append(want, ri)
		}
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("head %v: kernel walks reactions %v, applicable are %v", counts, walked, want)
	}
	next := make(vec.V, len(counts))
	packed := make([]byte, len(head))
	set := make([]uint64, len(headSet))
	for _, ri := range walked {
		h, over, need := k.next(ri)
		c.ApplyInto(next, counts, ri)
		if wantH := rowHash(next); h != wantH {
			t.Fatalf("head %v, reaction %d: hash %#x, rowHash of %v %#x", counts, ri, h, next, wantH)
		}
		k.nextSet(set, ri)
		if wantSet := fullSet(c, next); !slices.Equal(set, wantSet) {
			t.Fatalf("head %v, reaction %d: derived applicable set %x, recomputed for %v %x", counts, ri, set, next, wantSet)
		}
		if wantOver := next.MaxComponent() > maxCount; over != wantOver {
			t.Fatalf("head %v, reaction %d: over = %v, successor %v max %d against %d", counts, ri, over, next, next.MaxComponent(), maxCount)
		}
		if over {
			continue
		}
		wantNeed := 0
		if !packRow(packed, next, w) {
			wantNeed = rowWidth(next)
		}
		if need != wantNeed {
			t.Fatalf("head %v, reaction %d: need = %d, successor %v at width %d needs %d", counts, ri, need, next, w, wantNeed)
		}
		if need == 0 && !bytes.Equal(k.out, packed) {
			t.Fatalf("head %v, reaction %d: packed %x, packRow of %v %x", counts, ri, k.out, next, packed)
		}
	}
}

// deadSpecies is consumed by every padding reaction (deadReactions) and
// made by none, so a padding reaction never fires once its count is 0.
const deadSpecies crn.Species = "Z"

// padCRN returns c with n padding reactions put before its own, so c's
// reactions sit at indices n and up.
func padCRN(c *crn.CRN, n int) *crn.CRN {
	return crn.MustNew(c.Inputs, c.Output, c.Leader, append(deadReactions(n), c.Reactions...))
}

// FuzzSuccessor differentially tests the successor kernel against a full
// recompute of every successor. data is a CRN in FuzzVerdictPass's
// encoding (its input bytes are unused), after pad%131 padding reactions
// (padCRN), so its at most 16 reactions can straddle the 64- and
// 128-reaction boundaries of the applicable set's words; counts holds the
// head's counts, four little-endian bytes each (missing bytes read 0;
// deadSpecies is always 0), so heads reach every width boundary; the head
// is packed at the width widths[width%4] names or the narrowest that holds
// it, whichever is wider. The seed corpus (testdata/fuzz/FuzzSuccessor)
// holds a head over maxCount that the reaction lowers and one that it
// leaves alone, counts crossing 255 → 256 and 65535 → 65536, a change to
// the output, a catalytic reaction, and reactions straddling word
// boundaries (pad-cross-64, pad-cross-128) or starting at the last pad
// (pad-130).
func FuzzSuccessor(f *testing.F) {
	widths := [4]int{1, 2, 4, 8}
	f.Fuzz(func(t *testing.T, data, counts []byte, maxCount uint32, width, pad uint8) {
		c, _ := fuzzCRN(data)
		if c == nil {
			return
		}
		if n := int(pad) % 131; n > 0 {
			c = padCRN(c, n)
		}
		row := make([]int64, c.NumSpecies())
		for i := range row {
			var b [4]byte
			if 4*i < len(counts) {
				copy(b[:], counts[4*i:])
			}
			row[i] = int64(binary.LittleEndian.Uint32(b[:]))
		}
		if i := c.Index(deadSpecies); i >= 0 {
			row[i] = 0
		}
		w := max(widths[width%4], rowWidth(row))
		requireSuccessorMatchesRecompute(t, c, row, int64(maxCount), w)
	})
}

// TestRowHashSpreadsTags requires the table hashes of rows that differ
// only in small counts — the rows an exploration interns — to carry
// distinct intern-slot tags, so a probe that misses almost never reads a
// row, and to fill most slots of a small table.
func TestRowHashSpreadsTags(t *testing.T) {
	const rows, slotBits = 2000, 10
	tags := make(map[uint64]bool)
	slots := make(map[uint64]bool)
	for x := int64(0); x < rows; x++ {
		h := tableHash(rowHash([]int64{x % 7, x / 7 % 5, 0, x / 35, 1}))
		tags[h&slotTag] = true
		slots[h&(1<<slotBits-1)] = true
	}
	if len(tags) != rows {
		t.Errorf("%d rows carry only %d distinct tags", rows, len(tags))
	}
	if len(slots) < (1<<slotBits)*3/4 {
		t.Errorf("%d rows hit only %d/%d slots", rows, len(slots), 1<<slotBits)
	}
}
