package reach

import (
	"bytes"
	"sync"
	"sync/atomic"

	"crncompose/internal/vec"
)

// interner deduplicates configuration rows for the sequential engine. Rows
// live contiguously in arena, packed at width w (row.go), and their
// discovery records (succ.go) in hashes and sets, nw words of applicable
// set per row; slots is an open-addressing hash table mapping row hash to
// id+1 (0 = empty). Load factor is kept below 3/4. The row hash is a
// function of the counts alone, so widening the arena never rehashes the
// table. A row's applicable set is read only when the row is expanded, so
// sets holds the rows from setBase on: the engine's BFS queue.
type interner struct {
	d       int
	w       int // bytes per count, shared by every row
	nw      int // words per applicable set
	arena   []byte
	hashes  []uint64
	sets    []uint64
	setBase int // the id of the first row in sets
	slots   []int32
	mask    uint64
}

func newInterner(d, w, nw int) *interner {
	const initialSlots = 1 << 10
	return &interner{d: d, w: w, nw: nw, slots: make([]int32, initialSlots), mask: initialSlots - 1}
}

func (t *interner) n() int { return len(t.hashes) }

func (t *interner) row(id int) []byte { rb := t.d * t.w; return t.arena[id*rb : (id+1)*rb] }

// set returns the applicable set of row id, which must not be before the
// last dropSets.
func (t *interner) set(id int) []uint64 {
	i := (id - t.setBase) * t.nw
	return t.sets[i : i+t.nw]
}

// dropSets forgets the applicable sets of the rows before id once they fill
// half of sets, so moving the rest down costs O(1) per row.
func (t *interner) dropSets(id int) {
	if i := (id - t.setBase) * t.nw; 2*i >= len(t.sets) && i > 0 {
		t.sets = t.sets[:copy(t.sets, t.sets[i:])]
		t.setBase = id
	}
}

// widen re-encodes every row at the wider width w.
func (t *interner) widen(w int) {
	t.arena = widen(t.arena, t.w, w)
	t.w = w
}

// lookupOrAdd interns the row packed (counts packed at the arena's width)
// with row hash h, appending it to the arena if new, and reports whether it
// was added. A new row's record holds h and an empty applicable set, which
// the caller fills.
func (t *interner) lookupOrAdd(packed []byte, h uint64) (int32, bool) {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			id := int32(len(t.hashes))
			t.slots[i] = id + 1
			t.hashes = append(t.hashes, h)
			t.sets = append(t.sets, make([]uint64, t.nw)...)
			t.arena = append(t.arena, packed...)
			if len(t.hashes)*4 >= len(t.slots)*3 {
				t.grow()
			}
			return id, true
		}
		id := s - 1
		if t.hashes[id] == h && bytes.Equal(t.row(int(id)), packed) {
			return id, false
		}
		i = (i + 1) & t.mask
	}
}

func (t *interner) grow() {
	slots := make([]int32, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	for id, h := range t.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id) + 1
	}
	t.slots, t.mask = slots, mask
}

const (
	// Arena chunks target this many bytes at 1 byte per count, rows and
	// discovery records together, whatever the species and reaction
	// counts, so a tiny exploration of a wide CRN never pays for a huge
	// mostly-empty first chunk, while narrow CRNs still get thousands of
	// rows per chunk.
	targetChunkBytes = 1 << 15

	// The intern table is split into 1<<shardBits independently locked
	// shards selected by the top bits of the row hash.
	shardBits = 7
	numShards = 1 << shardBits
)

// chunkedArena stores configuration rows (d counts packed at width w each)
// and their discovery records (succ.go) in fixed-size chunks. Unlike an
// append-grown flat slice, growth never moves existing rows, which is what
// lets parallel workers read frontier rows while other workers claim and
// fill new ones. The chunk directory itself grows
// copy-on-write behind an atomic pointer, so readers never lock. Widening
// re-encodes every chunk's rows, so it runs only at a level barrier, when
// no worker holds a row; records do not depend on the width and are kept.
type chunkedArena struct {
	d     int
	w     int   // bytes per count; changed only by widen
	nw    int   // words per applicable set
	shift uint  // log2 rows per chunk, sized from d and nw at construction
	mask  int32 // rows per chunk - 1
	dir   atomic.Pointer[[]arenaChunk]
	mu    sync.Mutex // serializes directory growth
}

// arenaChunk holds the rows and records of 1<<shift consecutive ids.
type arenaChunk struct {
	rows   []byte
	hashes []uint64
	sets   []uint64
}

func newChunkedArena(d, w, nw int) *chunkedArena {
	shift := uint(6)
	for shift < 13 && (1<<(shift+1))*(d+8+8*nw) <= targetChunkBytes {
		shift++
	}
	a := &chunkedArena{d: d, w: w, nw: nw, shift: shift, mask: int32(1)<<shift - 1}
	dir := make([]arenaChunk, 0, 16)
	a.dir.Store(&dir)
	return a
}

// row returns the packed row id. The row must already be published: either
// the caller observed its intern-table entry under the owning shard's lock,
// or a level barrier separates the write from this read.
func (a *chunkedArena) row(id int32) []byte {
	dir := *a.dir.Load()
	rb := a.d * a.w
	off := int(id&a.mask) * rb
	return dir[id>>a.shift].rows[off : off+rb]
}

// record returns the discovery record of row id: its hash and applicable
// set. Only the goroutine that interned the row writes it, after
// lookupOrAdd reports the row added and outside the shard lock; a level
// barrier publishes it to the next level's readers.
func (a *chunkedArena) record(id int32) (h *uint64, set []uint64) {
	chunk := &(*a.dir.Load())[id>>a.shift]
	i := int(id & a.mask)
	return &chunk.hashes[i], chunk.sets[i*a.nw : (i+1)*a.nw]
}

// write copies the packed row into row id, allocating the owning chunk if
// needed. Distinct ids may be written concurrently.
func (a *chunkedArena) write(id int32, packed []byte) {
	ci := int(id >> a.shift)
	dir := *a.dir.Load()
	if ci >= len(dir) {
		dir = a.growTo(ci)
	}
	rb := a.d * a.w
	off := int(id&a.mask) * rb
	copy(dir[ci].rows[off:off+rb], packed)
}

func (a *chunkedArena) growTo(ci int) []arenaChunk {
	a.mu.Lock()
	defer a.mu.Unlock()
	dir := *a.dir.Load()
	if ci < len(dir) {
		return dir
	}
	// New chunks go into the directory's spare capacity: readers index only
	// below the length of the directory they loaded, so appending never
	// touches an entry they read. Only a full directory is copied, to one
	// twice its size, so growth costs O(1) entries per chunk.
	grown := dir
	if ci >= cap(dir) {
		grown = make([]arenaChunk, len(dir), max(ci+1, 2*len(dir), 8))
		copy(grown, dir)
	}
	rows := int(a.mask) + 1
	for len(grown) <= ci {
		grown = append(grown, arenaChunk{
			rows:   make([]byte, rows*a.d*a.w),
			hashes: make([]uint64, rows),
			sets:   make([]uint64, rows*a.nw),
		})
	}
	a.dir.Store(&grown)
	return grown
}

// widen re-encodes every row at width w. Ids and records are unchanged.
// The caller must be the only goroutine touching the arena (a level
// barrier).
func (a *chunkedArena) widen(w int) {
	dir := *a.dir.Load()
	wide := make([]arenaChunk, len(dir), cap(dir))
	for i, chunk := range dir {
		wide[i] = arenaChunk{rows: widen(chunk.rows, a.w, w), hashes: chunk.hashes, sets: chunk.sets}
	}
	a.w = w
	a.dir.Store(&wide)
}

// shardedInterner deduplicates rows across concurrent workers. The table is
// sharded by the top bits of the row hash (vec.HashShard); each shard is an
// independently locked open-addressing table, so workers interning rows with
// different hash prefixes never contend. Shards are owned by whichever
// goroutine holds their lock at that instant — there is no per-worker state
// and no assumption of a fixed worker set, so pool workers may join or
// leave an exploration mid-level (work stealing) without any handoff. Row
// ids are claimed from one atomic counter: they are dense, but their order
// reflects goroutine scheduling — the parallel explorer renumbers them
// deterministically afterwards.
type shardedInterner struct {
	d      int
	arena  *chunkedArena
	nextID atomic.Int32
	shards [numShards]internShard
}

type internShard struct {
	mu      sync.Mutex
	entries []internEntry
	mask    uint64
	n       int
	_       [24]byte // pad shards apart to avoid false sharing
}

// internEntry is one open-addressing slot: the row hash plus id+1
// (0 marks an empty slot).
type internEntry struct {
	hash uint64
	id   int32
}

func newShardedInterner(d, w, nw int) *shardedInterner {
	t := &shardedInterner{d: d, arena: newChunkedArena(d, w, nw)}
	// Shards start tiny: with the steal pool every pooled grid input gets a
	// sharded interner, including inputs whose whole state space is a few
	// dozen rows, so the empty table must be cheap. Per-shard doubling
	// amortizes growth for the big explorations.
	const initialSlots = 16
	for i := range t.shards {
		t.shards[i].entries = make([]internEntry, initialSlots)
		t.shards[i].mask = initialSlots - 1
	}
	return t
}

// n returns the number of interned rows. Only exact between level barriers.
func (t *shardedInterner) n() int { return int(t.nextID.Load()) }

// lookupOrAdd interns the row packed (counts packed at the arena's width)
// with row hash h (succ.go), copying it into the arena if new, and
// reports whether it was added; the caller then writes the new row's
// discovery record (chunkedArena.record). Safe for concurrent use; the row
// is fully written before its entry is published, and probing happens
// under the same shard lock, so a hit always sees a complete row. The hash
// does not depend on the width, so widening the arena leaves the shards
// valid.
func (t *shardedInterner) lookupOrAdd(packed []byte, h uint64) (int32, bool) {
	s := &t.shards[vec.HashShard(h, shardBits)]
	s.mu.Lock()
	i := h & s.mask
	for {
		e := s.entries[i]
		if e.id == 0 {
			id := t.nextID.Add(1) - 1
			if id < 0 {
				panic("reach: intern table overflow (≥ 2^31 configurations)")
			}
			t.arena.write(id, packed)
			s.entries[i] = internEntry{hash: h, id: id + 1}
			s.n++
			if s.n*4 >= len(s.entries)*3 {
				s.grow()
			}
			s.mu.Unlock()
			return id, true
		}
		if e.hash == h && bytes.Equal(t.arena.row(e.id-1), packed) {
			s.mu.Unlock()
			return e.id - 1, false
		}
		i = (i + 1) & s.mask
	}
}

func (s *internShard) grow() {
	entries := make([]internEntry, 2*len(s.entries))
	mask := uint64(len(entries) - 1)
	for _, e := range s.entries {
		if e.id == 0 {
			continue
		}
		i := e.hash & mask
		for entries[i].id != 0 {
			i = (i + 1) & mask
		}
		entries[i] = e
	}
	s.entries, s.mask = entries, mask
}
