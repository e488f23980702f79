package reach

import "crncompose/internal/crn"

// The successor kernel. The explorer expands a configuration this way: for
// every reaction applicable at the head row, build the successor's packed
// row and its hash and decide whether the successor exceeds MaxCount or
// needs a wider arena. A Lemma 6.2 reaction changes only a few
// species, so the kernel pays O(d) once per head — decode, count the counts
// over MaxCount — and O(|Δ|) per successor: it copies the head's packed row
// and patches only the counts the reaction changes, updating the
// over-MaxCount tally as it goes, and O(1) for the successor's hash.
//
// The row hash is linear, h = Σᵢ xᵢ·stride(i) mod 2^64, with stride(i) an
// odd pseudo-random word per species, so reaction ri changes h by the same
// Δh = Σ Δᵢ·stride(i) at every head: the kernel computes it once per
// reaction, and a successor's hash is the head's plus one word
// (incremental state hashing, as in Zobrist 1970 and SPIN's incremental
// hashing, Nguyen & Ruys 2008). The hash is a function of the counts
// alone, never of the packed width, so widening an arena leaves every
// interned hash valid. Rows one reaction apart have hashes in arithmetic
// progression, so the intern table takes slots and tags from
// tableHash(h), splitmix64's finalizer, a bijection that scatters them.
// The hash only picks table slots and their tags; rows are always compared
// byte for byte, so the choice of hash never changes a graph.
//
// The discovery record. Every interned configuration carries its row hash
// and its applicable set: setWords(nR) = ⌈nR/64⌉ words, bit ri%64 of word
// ri/64 set when reaction ri can fire. Both are derived when the
// configuration is first interned: the hash is the one next computed, and
// the set is the discovering head's with only the reactions
// crn.DependentsAt(ri) names re-tested against the successor's counts —
// the dependency-graph update of Gibson & Bruck's next reaction method
// (J. Phys. Chem. A, 2000). Only the root's record is computed in full. A
// head reads its hash from its record and walks the set bits in ascending
// order, which is reaction order, so it touches only the reactions that
// fire. A record is a function of the counts alone, so it never depends on
// which head discovered the configuration or on the width. Every record
// lives beside its row in the arena's chunks (chunkedArena.record).

// tableHash is splitmix64's finalizer: the intern table's slot and tag of
// a row with row hash h.
func tableHash(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// stride is species i's coefficient in the row hash.
func stride(i int) uint64 { return tableHash(uint64(i+1)*0x9e3779b97f4a7c15) | 1 }

// rowHash returns the hash of a whole row of counts.
func rowHash(counts []int64) uint64 {
	var h uint64
	for i, x := range counts {
		h += uint64(x) * stride(i)
	}
	return h
}

// setWords is the length of an applicable set for a CRN of nR reactions.
func setWords(nR int) int { return (nR + 63) / 64 }

// packRoot returns the root's row packed at the narrowest width that holds
// it, that width — the width the arena starts at — and the root's
// discovery record, computed in full: its row hash and applicable set.
func packRoot(root crn.Config) (packed []byte, w int, h uint64, set []uint64) {
	c, counts := root.CRN(), root.CountsRef()
	w = rowWidth(counts)
	packed = make([]byte, len(counts)*w)
	packRow(packed, counts, w)
	set = make([]uint64, setWords(c.NumReactions()))
	for ri := range c.NumReactions() {
		if c.ApplicableAt(counts, ri) {
			set[ri>>6] |= 1 << (ri & 63)
		}
	}
	return packed, w, rowHash(counts), set
}

// succKernel expands one head at a time. It is owned by one goroutine,
// and serves every exploration of its workspace.
type succKernel struct {
	c        *crn.CRN
	maxCount int64
	dh       []uint64 // dh[ri] is what reaction ri adds to a row hash
	cur      []int64  // the head's counts
	h        uint64   // the head's row hash
	set      []uint64 // the head's applicable set
	over     int      // how many of the head's counts exceed maxCount
	w        int      // the width of head and out
	lim      uint64   // widthLimit(w)
	head     []byte   // the head's row packed at w
	out      []byte   // the last successor's row packed at w
}

// newSuccKernel returns a kernel for c; its caller sets maxCount.
func newSuccKernel(c *crn.CRN) *succKernel {
	k := &succKernel{
		c:   c,
		dh:  make([]uint64, c.NumReactions()),
		cur: make([]int64, c.NumSpecies()),
		set: make([]uint64, setWords(c.NumReactions())),
	}
	for ri := range k.dh {
		for _, dc := range c.DeltaAt(ri) {
			k.dh[ri] += uint64(dc.Coeff) * stride(dc.Idx)
		}
	}
	return k
}

// load makes the packed row (width w) with discovery record (h, set) the
// head: it decodes the row and counts its counts over maxCount.
func (k *succKernel) load(row []byte, w int, h uint64, set []uint64) {
	unpackRow(k.cur, row, w)
	k.h = h
	copy(k.set, set)
	k.over = 0
	for _, x := range k.cur {
		if x > k.maxCount {
			k.over++
		}
	}
	if k.w != w {
		k.w, k.lim = w, widthLimit(w)
		k.head, k.out = zeroed(k.head, len(row)), zeroed(k.out, len(row))
	}
	copy(k.head, row)
}

// next builds the successor of the head under reaction ri, which must be
// applicable, and returns its row hash. over reports that one of its counts
// exceeds maxCount; otherwise need is 0 and k.out holds its row packed at
// the head's width, or need is the width it takes, wider than the head's.
// Over is reported before need, so a successor that is both is only over.
func (k *succKernel) next(ri int) (h uint64, over bool, need int) {
	copy(k.out, k.head)
	h, nover := k.h+k.dh[ri], k.over
	for _, dc := range k.c.DeltaAt(ri) {
		i, x := dc.Idx, k.cur[dc.Idx]
		y := x + dc.Coeff
		if x > k.maxCount {
			nover--
		}
		if y > k.maxCount {
			nover++
		}
		if uint64(y) > k.lim {
			need = max(need, widthFor(uint64(y)))
			continue
		}
		putCount(k.out, k.w, i, y)
	}
	if nover > 0 {
		return h, true, 0
	}
	return h, false, need
}

// nextSet writes into dst the applicable set of the successor under
// reaction ri: the head's set with only the reactions DependentsAt(ri)
// names re-tested against the successor's counts. A reaction that consumes
// no species ri changes is applicable at the successor exactly when it is
// at the head.
func (k *succKernel) nextSet(dst []uint64, ri int) {
	copy(dst, k.set)
	delta := k.c.DeltaAt(ri)
	for _, dc := range delta {
		k.cur[dc.Idx] += dc.Coeff
	}
	for _, rj := range k.c.DependentsAt(ri) {
		if k.c.ApplicableAt(k.cur, int(rj)) {
			dst[rj>>6] |= 1 << (rj & 63)
		} else {
			dst[rj>>6] &^= 1 << (rj & 63)
		}
	}
	for _, dc := range delta {
		k.cur[dc.Idx] -= dc.Coeff
	}
}
