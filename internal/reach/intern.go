package reach

import "bytes"

// Arena chunks target this many bytes at 1 byte per count, rows and
// discovery records together, whatever the species and reaction counts,
// so a tiny exploration of a wide CRN never pays for a huge mostly-empty
// first chunk, while narrow CRNs still get thousands of rows per chunk.
const targetChunkBytes = 1 << 15

// rowChunks locates packed rows (d counts at w bytes each) in chunks of
// 1<<shift consecutive ids. The arena writes rows through it, and a Graph
// reads them through the same chunks, with no copy.
type rowChunks struct {
	d     int
	w     int   // bytes per count; changed only by widen
	shift uint  // log2 rows per chunk
	mask  int32 // rows per chunk - 1
	rows  [][]byte
}

// row returns the packed row id.
func (r *rowChunks) row(id int32) []byte {
	rb := r.d * r.w
	off := int(id&r.mask) * rb
	return r.rows[id>>r.shift][off : off+rb]
}

// chunkedArena stores configuration rows and their discovery records
// (succ.go) in fixed-size chunks. Unlike an append-grown flat slice,
// growth never moves or copies a row or a record: it only adds a chunk.
// Widening re-encodes every chunk's rows; records do not depend on the
// width and are kept. A reset empties the arena but keeps its chunks, and
// the next exploration writes into each again when it holds that
// exploration's rows; widening always allocates new row chunks. An arena
// belongs to one goroutine.
type chunkedArena struct {
	rowChunks
	nw   int        // words per applicable set
	recs [][]uint64 // recs[i] holds the records of rows[i]'s ids, 1+nw words each: hash, then applicable set
}

func newChunkedArena(d, w, nw int) *chunkedArena {
	shift := uint(6)
	for shift < 13 && (1<<(shift+1))*(d+8+8*nw) <= targetChunkBytes {
		shift++
	}
	return &chunkedArena{rowChunks: rowChunks{d: d, w: w, shift: shift, mask: int32(1)<<shift - 1}, nw: nw}
}

// reset empties the arena for rows of width w, keeping its chunks for
// reuse.
func (a *chunkedArena) reset(w int) {
	a.w = w
	a.rows, a.recs = a.rows[:0], a.recs[:0]
}

// record returns the discovery record of row id: its hash and applicable
// set.
func (a *chunkedArena) record(id int32) (h *uint64, set []uint64) {
	rw := 1 + a.nw
	off := int(id&a.mask) * rw
	rec := a.recs[id>>a.shift][off : off+rw]
	return &rec[0], rec[1:]
}

// write copies the packed row into row id, adding chunks up to the one
// that holds it.
func (a *chunkedArena) write(id int32, packed []byte) {
	rows := int(a.mask) + 1
	for int(id>>a.shift) >= len(a.rows) {
		a.rows = appendChunk(a.rows, rows*a.d*a.w)
		a.recs = appendChunk(a.recs, rows*(1+a.nw))
	}
	copy(a.row(id), packed)
}

// appendChunk appends a chunk of n elements to chunks. It reuses the chunk
// a reset left past chunks' length when that one holds n; its contents
// are stale, and every row and record is written before it is read.
func appendChunk[T byte | uint64](chunks [][]T, n int) [][]T {
	if k := len(chunks); k < cap(chunks) {
		if c := chunks[:k+1][k]; cap(c) >= n {
			return append(chunks, c[:n])
		}
	}
	return append(chunks, make([]T, n))
}

// widen re-encodes every row at width w. Ids and records are unchanged.
func (a *chunkedArena) widen(w int) {
	for i := range a.rows {
		a.rows[i] = widen(a.rows[i], a.w, w)
	}
	a.w = w
}

// interner deduplicates configuration rows for one exploration at a time.
// Rows and records live in the chunked arena, ids dense in interning
// order; slots is an open-addressing hash table with linear probing, kept
// below 3/4 full. A row's home slot is its table hash (tableHash of its
// row hash) modulo the table size, and its slot is one word: the top 32
// bits of the table hash (its tag), then id+1 in the low 32 bits
// (0 = empty). A probe reads a row
// only when the tags match, and then compares it byte for byte, so the
// hash never decides equality. The row hash is a function of the counts
// alone, so widening the arena never rehashes the table. A reset keeps
// the arena's chunks and the table's backing array for the next
// exploration.
type interner struct {
	chunkedArena
	n     int // rows interned
	slots []uint64
	mask  uint64
}

// slotTag masks a hash, or a slot, to its tag.
const slotTag uint64 = 1<<64 - 1<<32

// initialSlots is the table size an exploration starts at.
const initialSlots = 1 << 10

// reset empties the interner for an exploration whose rows start at width
// w.
func (t *interner) reset(w int) {
	t.chunkedArena.reset(w)
	t.n = 0
	t.slots = zeroed(t.slots, initialSlots)
	t.mask = initialSlots - 1
}

// lookupOrAdd interns the row packed (counts packed at the arena's width)
// with row hash h, copying it into the arena if new, and reports whether
// it was added. A new row's record holds h; the caller writes its
// applicable set.
func (t *interner) lookupOrAdd(packed []byte, h uint64) (int32, bool) {
	th := tableHash(h)
	tag := th & slotTag
	for i := th & t.mask; ; i = (i + 1) & t.mask {
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
// record. It never reads the old table, so the new one may take its
// backing array, which a larger earlier exploration left behind.
func (t *interner) grow() {
	slots := zeroed(t.slots, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	for id := range int32(t.n) {
		h, _ := t.record(id)
		th := tableHash(*h)
		i := th & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = th&slotTag | uint64(id+1)
	}
	t.slots, t.mask = slots, mask
}

// zeroed returns a slice of n zero elements, in s's backing array when it
// holds n.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
