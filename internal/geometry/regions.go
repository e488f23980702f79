package geometry

import (
	"fmt"
	"sort"
	"strings"

	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

// Arrangement is a set of threshold hyperplanes H_i = {x : T_i·x = H_i} in
// R^d, normalized so that no hyperplane contains an integer point (Section
// 7.2: the threshold t·x ≥ h is rewritten 2t·x > 2h−1, and 2t·x is even
// while 2h−1 is odd). The hyperplanes partition N^d into regions indexed by
// sign vectors.
type Arrangement struct {
	D int
	T []vec.V // T[i] is the (doubled) normal of hyperplane i
	H []int64 // H[i] is the (doubled, odd) offset
}

// NewArrangement builds an arrangement from raw threshold atoms (a·x ≥ b),
// applying the integer-point-free normalization and deduplicating
// hyperplanes that define the same partition (±(t, h) pairs and exact
// duplicates).
func NewArrangement(d int, normals []vec.V, offsets []int64) *Arrangement {
	if len(normals) != len(offsets) {
		panic("geometry: normals/offsets length mismatch")
	}
	arr := &Arrangement{D: d}
	seen := make(map[string]bool)
	for i, a := range normals {
		if len(a) != d {
			panic(fmt.Sprintf("geometry: normal %d has arity %d, want %d", i, len(a), d))
		}
		t := a.Scale(2)
		h := 2*offsets[i] - 1
		if t.IsZero() {
			continue // trivial (always true or always false); no hyperplane
		}
		key := canonicalHyperplane(t, h)
		if seen[key] {
			continue
		}
		seen[key] = true
		arr.T = append(arr.T, t)
		arr.H = append(arr.H, h)
	}
	return arr
}

func canonicalHyperplane(t vec.V, h int64) string {
	// Normalize by gcd of all coefficients and h, and by leading sign, so
	// (t,h) and (−t,−h) collide.
	g := int64(0)
	for _, x := range t {
		g = rat.GCD(g, x)
	}
	g = rat.GCD(g, h)
	if g == 0 {
		g = 1
	}
	tt := make(vec.V, len(t))
	for i := range t {
		tt[i] = t[i] / g
	}
	hh := h / g
	// Leading sign: first nonzero coefficient positive.
	for _, x := range tt {
		if x != 0 {
			if x < 0 {
				tt = tt.Scale(-1)
				hh = -hh
			}
			break
		}
	}
	return tt.Key() + "|" + fmt.Sprint(hh)
}

// Len returns the number of hyperplanes.
func (arr *Arrangement) Len() int { return len(arr.T) }

// SignatureAt returns the sign vector of x: s_i = sign(T_i·x − H_i), which
// is never zero for integer x by the normalization.
func (arr *Arrangement) SignatureAt(x vec.V) []int {
	s := make([]int, len(arr.T))
	for i := range arr.T {
		v := arr.T[i].Dot(x) - arr.H[i]
		if v > 0 {
			s[i] = 1
		} else if v < 0 {
			s[i] = -1
		} else {
			panic(fmt.Sprintf("geometry: integer point %v lies on hyperplane %d", x, i))
		}
	}
	return s
}

// Region is the set {x ∈ R^d≥0 : S(Tx − h) ≥ 0} induced by a sign matrix
// (Definition 7.2), together with the integer sample points that realized
// it during the census.
type Region struct {
	Arr    *Arrangement
	Signs  []int
	Points []vec.V // integer witnesses found by the census, ascending lex

	// cached analysis
	reccDim  int
	eventual bool
	implicit []int // indices into cone rows that are implicit equalities
	coneRows []rat.Vec
	analyzed bool
	wBasis   []rat.Vec
}

// Key returns a canonical string for the sign vector.
func (r *Region) Key() string { return signKey(r.Signs) }

func signKey(s []int) string {
	var sb strings.Builder
	for _, v := range s {
		if v > 0 {
			sb.WriteByte('+')
		} else {
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// Contains reports whether the integer point x lies in this region.
func (r *Region) Contains(x vec.V) bool {
	for i := range r.Arr.T {
		v := r.Arr.T[i].Dot(x) - r.Arr.H[i]
		if (v > 0) != (r.Signs[i] > 0) {
			return false
		}
	}
	return x.Nonnegative()
}

// Census enumerates the regions realized by integer points in [0, bound]^d,
// returning them keyed and sorted by sign vector for determinism.
func (arr *Arrangement) Census(bound int64) []*Region {
	byKey := make(map[string]*Region)
	vec.Grid(vec.Zero(arr.D), vec.Const(arr.D, bound), func(x vec.V) bool {
		s := arr.SignatureAt(x)
		k := signKey(s)
		reg, ok := byKey[k]
		if !ok {
			reg = &Region{Arr: arr, Signs: s}
			byKey[k] = reg
		}
		reg.Points = append(reg.Points, x.Clone())
		return true
	})
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Region, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// coneConstraintRows returns the rows m of the recession cone description
// recc(R) = {y : m·y ≥ 0 for all rows}, consisting of s_i·T_i for each
// hyperplane plus the nonnegativity rows e_j.
func (r *Region) coneConstraintRows() []rat.Vec {
	if r.coneRows != nil {
		return r.coneRows
	}
	rows := make([]rat.Vec, 0, len(r.Arr.T)+r.Arr.D)
	for i, t := range r.Arr.T {
		row := rat.VecFromInts(t)
		if r.Signs[i] < 0 {
			row = row.Scale(rat.FromInt(-1))
		}
		rows = append(rows, row)
	}
	for j := 0; j < r.Arr.D; j++ {
		e := rat.ZeroVec(r.Arr.D)
		e[j] = rat.One()
		rows = append(rows, e)
	}
	r.coneRows = rows
	return rows
}

// analyze computes the recession cone dimension, the implicit equality
// rows, a basis for W = span(recc(R)), and the eventual-region witness.
func (r *Region) analyze() {
	if r.analyzed {
		return
	}
	rows := r.coneConstraintRows()
	d := r.Arr.D

	// A row m is an implicit equality iff the system
	// {all rows ≥ 0, m > 0} is infeasible.
	for i, m := range rows {
		sys := NewSystem(d)
		for _, row := range rows {
			sys.AddGeqZero(row)
		}
		sys.Add(m, rat.Zero(), true)
		if _, ok := sys.Feasible(); !ok {
			r.implicit = append(r.implicit, i)
		}
	}
	// dim recc(R) = d − rank(implicit rows); W = nullspace(implicit rows).
	var implRows []rat.Vec
	for _, i := range r.implicit {
		implRows = append(implRows, rows[i])
	}
	if len(implRows) == 0 {
		r.reccDim = d
		r.wBasis = identityBasis(d)
	} else {
		m := rat.Mat(implRows)
		r.reccDim = d - m.Rank()
		r.wBasis = m.NullspaceBasis()
	}
	// Eventual iff recc(R) contains y ≥ 1 componentwise.
	sys := NewSystem(d)
	for _, row := range rows {
		sys.AddGeqZero(row)
	}
	for j := 0; j < d; j++ {
		e := rat.ZeroVec(d)
		e[j] = rat.One()
		sys.Add(e, rat.One(), false)
	}
	_, r.eventual = sys.Feasible()
	r.analyzed = true
}

// ReccDim returns dim recc(R).
func (r *Region) ReccDim() int {
	r.analyze()
	return r.reccDim
}

// IsDetermined reports dim recc(R) = d (Section 7.3).
func (r *Region) IsDetermined() bool { return r.ReccDim() == r.Arr.D }

// IsEventual reports whether the region is unbounded in all inputs
// (Definition 7.10), decided as recc(R) ∩ {y ≥ 1} ≠ ∅.
func (r *Region) IsEventual() bool {
	r.analyze()
	return r.eventual
}

// WBasis returns a basis of the determined subspace W = span(recc(R)).
func (r *Region) WBasis() []rat.Vec {
	r.analyze()
	return r.wBasis
}

// ImplicitRows returns the cone constraint rows that hold with equality on
// all of recc(R). W is their common nullspace.
func (r *Region) ImplicitRows() []rat.Vec {
	r.analyze()
	rows := r.coneConstraintRows()
	out := make([]rat.Vec, len(r.implicit))
	for k, i := range r.implicit {
		out[k] = rows[i]
	}
	return out
}

// IsNeighborOf reports whether r is a neighbor of u: recc(u) ⊆ recc(r)
// (Definition 7.11). Decided exactly: for every cone row m of r, the system
// {y ∈ recc(u), m·y < 0} must be infeasible.
func (r *Region) IsNeighborOf(u *Region) bool {
	uRows := u.coneConstraintRows()
	for _, m := range r.coneConstraintRows() {
		sys := NewSystem(r.Arr.D)
		for _, row := range uRows {
			sys.AddGeqZero(row)
		}
		sys.Add(m.Scale(rat.FromInt(-1)), rat.Zero(), true) // m·y < 0
		if _, ok := sys.Feasible(); ok {
			return false
		}
	}
	return true
}

// StripKey returns the key identifying the strip of x within region u
// (Definition 7.13): x ≡_W y iff x − y ∈ W iff the implicit rows agree on x
// and y. Points of u in the same strip share this key.
func (u *Region) StripKey(x vec.V) string {
	var sb strings.Builder
	for _, m := range u.ImplicitRows() {
		sb.WriteString(m.DotInt(x).String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// Strips partitions the region's census points into strips, keyed
// deterministically, each with its points in census order.
func (u *Region) Strips() map[string][]vec.V {
	out := make(map[string][]vec.V)
	for _, x := range u.Points {
		k := u.StripKey(x)
		out[k] = append(out[k], x)
	}
	return out
}

func identityBasis(d int) []rat.Vec {
	basis := make([]rat.Vec, d)
	for i := 0; i < d; i++ {
		v := rat.ZeroVec(d)
		v[i] = rat.One()
		basis[i] = v
	}
	return basis
}

// String summarizes the region.
func (r *Region) String() string {
	return fmt.Sprintf("region[%s] dim recc=%d eventual=%v points=%d",
		r.Key(), r.ReccDim(), r.IsEventual(), len(r.Points))
}
