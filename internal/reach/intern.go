package reach

import "bytes"

// Arena chunks target this many bytes at 1 byte per count, rows and
// discovery records together, whatever the species and reaction counts,
// so a tiny exploration of a wide CRN never pays for a huge mostly-empty
// first chunk, while narrow CRNs still get thousands of rows per chunk.
const targetChunkBytes = 1 << 15

// chunkedArena stores configuration rows (d counts packed at width w each)
// and their discovery records (succ.go) in fixed-size chunks. Unlike an
// append-grown flat slice, growth never moves or copies a row or a record:
// it only adds a chunk. Widening re-encodes every chunk's rows; records do
// not depend on the width and are kept. An arena belongs to one
// exploration and one goroutine.
type chunkedArena struct {
	d      int
	w      int   // bytes per count; changed only by widen
	nw     int   // words per applicable set
	shift  uint  // log2 rows per chunk, sized from d and nw at construction
	mask   int32 // rows per chunk - 1
	chunks []arenaChunk
}

// arenaChunk holds the rows and records of 1<<shift consecutive ids. A
// row's record is 1+nw words of recs: its hash, then its applicable set.
type arenaChunk struct {
	rows []byte
	recs []uint64
}

func newChunkedArena(d, w, nw int) *chunkedArena {
	shift := uint(6)
	for shift < 13 && (1<<(shift+1))*(d+8+8*nw) <= targetChunkBytes {
		shift++
	}
	return &chunkedArena{d: d, w: w, nw: nw, shift: shift, mask: int32(1)<<shift - 1}
}

// row returns the packed row id.
func (a *chunkedArena) row(id int32) []byte {
	rb := a.d * a.w
	off := int(id&a.mask) * rb
	return a.chunks[id>>a.shift].rows[off : off+rb]
}

// record returns the discovery record of row id: its hash and applicable
// set.
func (a *chunkedArena) record(id int32) (h *uint64, set []uint64) {
	rw := 1 + a.nw
	off := int(id&a.mask) * rw
	rec := a.chunks[id>>a.shift].recs[off : off+rw]
	return &rec[0], rec[1:]
}

// write copies the packed row into row id, adding chunks up to the one
// that holds it.
func (a *chunkedArena) write(id int32, packed []byte) {
	rows := int(a.mask) + 1
	for int(id>>a.shift) >= len(a.chunks) {
		a.chunks = append(a.chunks, arenaChunk{
			rows: make([]byte, rows*a.d*a.w),
			recs: make([]uint64, rows*(1+a.nw)),
		})
	}
	copy(a.row(id), packed)
}

// widen re-encodes every row at width w. Ids and records are unchanged.
func (a *chunkedArena) widen(w int) {
	for i := range a.chunks {
		a.chunks[i].rows = widen(a.chunks[i].rows, a.w, w)
	}
	a.w = w
}

// interner deduplicates configuration rows for one exploration. Rows and
// records live in the chunked arena, ids dense in interning order; slots
// is an open-addressing hash table with linear probing, kept below 3/4
// full. A slot is one word: the top 32 bits of the row's hash (its tag),
// then id+1 in the low 32 bits (0 = empty). A probe reads a row only when
// the tags match, and then compares it byte for byte, so the hash never
// decides equality. The row hash is a function of the counts alone, so
// widening the arena never rehashes the table.
type interner struct {
	chunkedArena
	n     int // rows interned
	slots []uint64
	mask  uint64
}

// slotTag masks a hash, or a slot, to its tag.
const slotTag uint64 = 1<<64 - 1<<32

func newInterner(d, w, nw int) *interner {
	const initialSlots = 1 << 10
	return &interner{
		chunkedArena: *newChunkedArena(d, w, nw),
		slots:        make([]uint64, initialSlots),
		mask:         initialSlots - 1,
	}
}

// lookupOrAdd interns the row packed (counts packed at the arena's width)
// with row hash h, copying it into the arena if new, and reports whether
// it was added. A new row's record holds h and an empty applicable set,
// which the caller fills.
func (t *interner) lookupOrAdd(packed []byte, h uint64) (int32, bool) {
	tag := h & slotTag
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			if t.n == 1<<31-1 {
				panic("reach: intern table overflow (≥ 2^31 configurations)")
			}
			id := int32(t.n)
			t.n++
			t.write(id, packed)
			rh, _ := t.record(id)
			*rh = h
			t.slots[i] = tag | uint64(id+1)
			if t.n*4 >= len(t.slots)*3 {
				t.grow()
			}
			return id, true
		}
		if s&slotTag == tag {
			if id := int32(uint32(s)) - 1; bytes.Equal(t.row(id), packed) {
				return id, false
			}
		}
	}
}

// grow doubles the table, placing every row again from the hash in its
// record.
func (t *interner) grow() {
	slots := make([]uint64, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	for id := range int32(t.n) {
		h, _ := t.record(id)
		i := *h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = *h&slotTag | uint64(id+1)
	}
	t.slots, t.mask = slots, mask
}
