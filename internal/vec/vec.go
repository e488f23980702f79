// Package vec provides exact integer vector arithmetic over N^d and Z^d,
// the pointwise partial order used throughout the paper, congruence classes
// of Z^d modulo a period p, and helpers related to Dickson's lemma.
//
// Vectors are represented as []int64. All operations are pure: they allocate
// fresh result slices and never mutate their arguments unless documented.
package vec

import (
	"fmt"
	"strconv"
	"strings"
)

// V is an integer vector. The zero value is the empty (0-dimensional) vector.
type V []int64

// New returns a copy of xs as a vector.
func New(xs ...int64) V {
	v := make(V, len(xs))
	copy(v, xs)
	return v
}

// Zero returns the d-dimensional zero vector.
func Zero(d int) V { return make(V, d) }

// Const returns the d-dimensional vector with every component equal to c.
func Const(d int, c int64) V {
	v := make(V, d)
	for i := range v {
		v[i] = c
	}
	return v
}

// Unit returns the d-dimensional i-th standard basis vector e_i.
func Unit(d, i int) V {
	v := make(V, d)
	v[i] = 1
	return v
}

// Dim returns the dimension (number of components) of v.
func (v V) Dim() int { return len(v) }

// Clone returns a copy of v.
func (v V) Clone() V {
	w := make(V, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. It panics if dimensions differ.
func (v V) Add(w V) V {
	mustSameDim(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if dimensions differ.
func (v V) Sub(w V) V {
	mustSameDim(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c*v.
func (v V) Scale(c int64) V {
	out := make(V, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Dot returns the inner product v · w. It panics if dimensions differ.
func (v V) Dot(w V) int64 {
	mustSameDim(v, w)
	var s int64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Leq reports the pointwise order v ≤ w (every component of v is ≤ the
// corresponding component of w). It panics if dimensions differ.
func (v V) Leq(w V) bool {
	mustSameDim(v, w)
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// Less reports v ≤ w and v ≠ w (strict in at least one component).
func (v V) Less(w V) bool { return v.Leq(w) && !v.Eq(w) }

// Eq reports componentwise equality.
func (v V) Eq(w V) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every component is zero.
func (v V) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Nonnegative reports whether every component is ≥ 0, i.e. v ∈ N^d.
func (v V) Nonnegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// Drop returns a copy of v with component i removed, reducing the dimension
// by one. Used when restricting a function to a fixed input.
func (v V) Drop(i int) V {
	w := make(V, 0, len(v)-1)
	w = append(w, v[:i]...)
	w = append(w, v[i+1:]...)
	return w
}

// Sum returns the sum of components (the L1 norm for nonnegative vectors).
func (v V) Sum() int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// MaxComponent returns the largest component of v, or 0 for empty v.
func (v V) MaxComponent() int64 {
	var m int64
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// String renders v as "(a, b, c)".
func (v V) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", x)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Key returns a compact string usable as a map key. Distinct vectors of the
// same dimension have distinct keys.
func (v V) Key() string {
	b := make([]byte, 0, 4*len(v))
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return string(b)
}

// HashShard maps a 64-bit hash to a shard index in [0, 1<<bits) using the
// top bits of the hash. Sharded interning tables select their shard with the
// top bits and probe within the shard with the low bits, so the two are
// independent and a shard's slots stay uniformly filled.
func HashShard(h uint64, bits uint) uint64 {
	if bits == 0 {
		return 0
	}
	return h >> (64 - bits)
}

func mustSameDim(v, w V) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Mod returns the congruence class of v modulo p as the canonical
// representative with all components in [0, p). It panics if p ≤ 0.
func (v V) Mod(p int64) V {
	if p <= 0 {
		panic("vec: nonpositive period")
	}
	out := make(V, len(v))
	for i := range v {
		out[i] = ((v[i] % p) + p) % p
	}
	return out
}

// CongruenceIndex encodes the congruence class of v modulo p as a single
// integer in [0, p^d), using base-p positional encoding. It panics if p ≤ 0
// or if p^d overflows int64.
func CongruenceIndex(v V, p int64) int64 {
	if p <= 0 {
		panic("vec: nonpositive period")
	}
	var idx int64
	for i := range v {
		c := ((v[i] % p) + p) % p
		if idx > (1<<62)/p {
			panic("vec: congruence index overflow")
		}
		idx = idx*p + c
	}
	return idx
}

// CongruenceClass decodes the index produced by CongruenceIndex back into
// the canonical representative in [0,p)^d.
func CongruenceClass(idx, p int64, d int) V {
	v := make(V, d)
	for i := d - 1; i >= 0; i-- {
		v[i] = idx % p
		idx /= p
	}
	return v
}

// NumClasses returns p^d, the number of congruence classes of Z^d mod p.
// It panics on overflow.
func NumClasses(p int64, d int) int64 {
	n := int64(1)
	for i := 0; i < d; i++ {
		if n > (1<<62)/p {
			panic("vec: class count overflow")
		}
		n *= p
	}
	return n
}

// FindNondecreasingPair scans the sequence seq and returns indices (i, j)
// with i < j and seq[i] ≤ seq[j] pointwise, if any exist. Dickson's lemma
// guarantees such a pair exists in any infinite sequence over N^d; this
// helper finds one in a finite prefix. Returns (-1, -1) if none is present.
func FindNondecreasingPair(seq []V) (int, int) {
	for j := 1; j < len(seq); j++ {
		for i := 0; i < j; i++ {
			if seq[i].Leq(seq[j]) {
				return i, j
			}
		}
	}
	return -1, -1
}

// Grid enumerates all vectors x ∈ N^d with lo ≤ x ≤ hi pointwise, invoking
// fn on each. Enumeration is in lexicographic order. fn must not retain the
// vector across calls; it is reused. Returning false from fn stops early.
func Grid(lo, hi V, fn func(V) bool) {
	mustSameDim(lo, hi)
	d := len(lo)
	if d == 0 {
		fn(V{})
		return
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return
		}
	}
	cur := lo.Clone()
	for {
		if !fn(cur) {
			return
		}
		i := d - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= hi[i] {
				break
			}
			cur[i] = lo[i]
			i--
		}
		if i < 0 {
			return
		}
	}
}
