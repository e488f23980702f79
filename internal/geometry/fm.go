// Package geometry implements the convex-geometric machinery of Section 7
// of the paper: threshold hyperplane arrangements, regions induced by sign
// matrices (Definition 7.2), recession cones and their dimensions
// (Definition 7.4), determined/under-determined classification, the
// eventual-region test (Definition 7.10), the neighbor relation
// (Definition 7.11), and strips (Definition 7.13).
//
// All feasibility questions about recession cones are decided exactly with
// Fourier–Motzkin elimination over rationals, which also produces witness
// points (used e.g. to find strictly positive recession directions).
package geometry

import (
	"fmt"

	"crncompose/internal/rat"
)

// Constraint is a linear inequality A·y ≥ B (or > when Strict).
type Constraint struct {
	A      rat.Vec
	B      rat.R
	Strict bool
}

// String renders the constraint.
func (c Constraint) String() string {
	op := "≥"
	if c.Strict {
		op = ">"
	}
	return fmt.Sprintf("%s·y %s %s", c.A, op, c.B)
}

// System is a conjunction of linear constraints over d variables.
type System struct {
	D           int
	Constraints []Constraint
}

// NewSystem returns an empty system over d variables.
func NewSystem(d int) *System { return &System{D: d} }

// Add appends the constraint a·y ≥ b (strict if strict).
func (s *System) Add(a rat.Vec, b rat.R, strict bool) *System {
	if len(a) != s.D {
		panic(fmt.Sprintf("geometry: constraint arity %d ≠ system arity %d", len(a), s.D))
	}
	s.Constraints = append(s.Constraints, Constraint{A: a.Clone(), B: b, Strict: strict})
	return s
}

// AddGeqZero appends a·y ≥ 0.
func (s *System) AddGeqZero(a rat.Vec) *System { return s.Add(a, rat.Zero(), false) }

// Feasible decides whether the system has a rational solution and, if so,
// returns one. The witness satisfies every constraint (including strict
// ones) exactly.
func (s *System) Feasible() (rat.Vec, bool) {
	// levels[k] holds the constraints over variables [0..k) before variable
	// k-1 is eliminated; levels[s.D] is the original system.
	levels := make([][]Constraint, s.D+1)
	levels[s.D] = append([]Constraint(nil), s.Constraints...)
	for k := s.D; k > 0; k-- {
		lower, upper, free := split(levels[k], k-1)
		var next []Constraint
		next = append(next, free...)
		// Combine each lower bound with each upper bound: L ≤ y_k ≤ U
		// requires L ≤ U, i.e. (U − L) ≥ 0 (strict if either side strict).
		for _, lo := range lower {
			for _, up := range upper {
				next = append(next, combine(lo, up, k-1))
			}
		}
		levels[k-1] = next
	}
	// Ground level: constraints over zero variables are "0 ≥ B" checks.
	for _, c := range levels[0] {
		sign := c.B.Sign()
		if sign > 0 || (sign == 0 && c.Strict) {
			return nil, false
		}
	}
	// Back-substitute to build a witness.
	y := rat.ZeroVec(s.D)
	for k := 1; k <= s.D; k++ {
		lower, upper, _ := split(levels[k], k-1)
		val, ok := pickValue(lower, upper, y, k-1)
		if !ok {
			return nil, false
		}
		y[k-1] = val
	}
	return y, true
}

// split partitions constraints by the sign of the coefficient on variable v:
// positive coefficients give lower bounds on y_v, negative give upper
// bounds, zero coefficients are independent of y_v.
func split(cs []Constraint, v int) (lower, upper, free []Constraint) {
	for _, c := range cs {
		switch c.A[v].Sign() {
		case 1:
			lower = append(lower, c)
		case -1:
			upper = append(upper, c)
		default:
			free = append(free, c)
		}
	}
	return lower, upper, free
}

// combine eliminates variable v from a lower-bound constraint lo
// (lo.A[v] > 0) and an upper-bound constraint up (up.A[v] < 0), producing a
// constraint not involving v: scale so the coefficients on v cancel.
func combine(lo, up Constraint, v int) Constraint {
	// lo: a·y ≥ b with a_v > 0  ⇒  y_v ≥ (b − a'·y')/a_v
	// up: c·y ≥ e with c_v < 0  ⇒  y_v ≤ (e − c'·y')/c_v (division flips)
	// Eliminate: (−c_v)·lo + a_v·up ≥ (−c_v)b + a_v e with coefficient on v
	// equal to (−c_v)a_v + a_v c_v = 0.
	av := lo.A[v]
	cv := up.A[v].Neg() // positive
	a := lo.A.Scale(cv).Add(up.A.Scale(av))
	b := lo.B.Mul(cv).Add(up.B.Mul(av))
	return Constraint{A: a, B: b, Strict: lo.Strict || up.Strict}
}

// pickValue chooses a value for variable v consistent with the lower and
// upper bound constraints, given the already-chosen values of variables
// [0, v) in y (variables above v have coefficient zero at this level).
func pickValue(lower, upper []Constraint, y rat.Vec, v int) (rat.R, bool) {
	if len(lower) == 0 && len(upper) == 0 {
		return rat.Zero(), true // unconstrained
	}
	var (
		haveLo, haveHi     bool
		bestLo, bestHi     rat.R
		strictLo, strictHi bool
	)
	for _, c := range lower {
		rest := partialDot(c.A, y, v)
		bound := c.B.Sub(rest).Div(c.A[v])
		switch {
		case !haveLo || bound.Cmp(bestLo) > 0:
			bestLo, strictLo, haveLo = bound, c.Strict, true
		case bound.Eq(bestLo):
			strictLo = strictLo || c.Strict
		}
	}
	for _, c := range upper {
		rest := partialDot(c.A, y, v)
		bound := c.B.Sub(rest).Div(c.A[v]) // division by negative flips to ≤
		switch {
		case !haveHi || bound.Cmp(bestHi) < 0:
			bestHi, strictHi, haveHi = bound, c.Strict, true
		case bound.Eq(bestHi):
			strictHi = strictHi || c.Strict
		}
	}
	switch {
	case !haveLo && !haveHi:
		return rat.Zero(), true
	case haveLo && !haveHi:
		if strictLo {
			return bestLo.Add(rat.One()), true
		}
		return bestLo, true
	case !haveLo && haveHi:
		if strictHi {
			return bestHi.Sub(rat.One()), true
		}
		return bestHi, true
	default:
		cmp := bestLo.Cmp(bestHi)
		if cmp > 0 {
			return rat.Zero(), false
		}
		if cmp == 0 {
			if strictLo || strictHi {
				return rat.Zero(), false
			}
			return bestLo, true
		}
		return bestLo.Add(bestHi).Div(rat.FromInt(2)), true
	}
}

func partialDot(a, y rat.Vec, v int) rat.R {
	s := rat.Zero()
	for i := 0; i < v; i++ {
		s = s.Add(a[i].Mul(y[i]))
	}
	return s
}
