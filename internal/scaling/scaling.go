// Package scaling implements the Section 8 bridge to the continuous CRN
// model of Chalk, Kornerup, Reeves and Soloveichik: the ∞-scaling
//
//	f̂(z) = lim_{c→∞} f(⌊cz⌋)/c
//
// of an obliviously-computable f : N^d → N (Definition 8.1). Theorem 8.2
// shows f̂ is exactly the class computable by output-oblivious continuous
// CRNs: superadditive, positive-continuous, piecewise rational-linear —
// and on the positive orthant f̂(z) = min_k ∇g_k·z, the min of the
// gradients of f's eventually-min normal form.
package scaling

import (
	"fmt"

	"crncompose/internal/quilt"
	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

// Func is an integer function evaluator on N^d.
type Func func(x vec.V) int64

// Estimate numerically estimates f̂(z) by evaluating f(⌊cz⌋)/c at the given
// scale c. z is given as a rational vector.
func Estimate(f Func, z rat.Vec, c int64) float64 {
	x := make(vec.V, len(z))
	for i, r := range z {
		x[i] = r.MulInt(c).Floor()
	}
	return float64(f(x)) / float64(c)
}

// ExactOnPositive computes f̂(z) exactly for strictly positive rational z
// from the eventually-min normal form of f: f̂(z) = min_k ∇g_k·z
// (equation (4) in the paper — the periodic offsets vanish in the limit).
func ExactOnPositive(m *quilt.Min, z rat.Vec) (rat.R, error) {
	if len(z) != m.Dim() {
		return rat.R{}, fmt.Errorf("scaling: arity mismatch")
	}
	for _, r := range z {
		if r.Sign() <= 0 {
			return rat.R{}, fmt.Errorf("scaling: ExactOnPositive needs z > 0 componentwise")
		}
	}
	best := m.Terms[0].ScalingGradient().Dot(z)
	for _, g := range m.Terms[1:] {
		if v := g.ScalingGradient().Dot(z); v.Cmp(best) < 0 {
			best = v
		}
	}
	return best, nil
}

// CheckSuperadditive verifies f̂(a) + f̂(b) ≤ f̂(a+b) for the exact scaling
// over a rational grid of strictly positive points, as Theorem 8.2 requires
// of the continuous class. Returns the first violating pair, or nil.
//
// Paper: Theorem 8.2.
func CheckSuperadditive(m *quilt.Min, gridMax int64) (violation []rat.Vec, err error) {
	d := m.Dim()
	var pts []rat.Vec
	vec.Grid(vec.Const(d, 1), vec.Const(d, gridMax), func(x vec.V) bool {
		pts = append(pts, rat.VecFromInts(x))
		return true
	})
	for _, a := range pts {
		for _, b := range pts {
			fa, err := ExactOnPositive(m, a)
			if err != nil {
				return nil, err
			}
			fb, err := ExactOnPositive(m, b)
			if err != nil {
				return nil, err
			}
			fab, err := ExactOnPositive(m, a.Add(b))
			if err != nil {
				return nil, err
			}
			if fa.Add(fb).Cmp(fab) > 0 {
				return []rat.Vec{a, b}, nil
			}
		}
	}
	return nil, nil
}

// ConvergenceReport compares the numeric ∞-scaling estimate against the
// exact min-of-gradients value at a point, returning both and the absolute
// error. Used by the Fig 4b / Theorem 8.2 experiments.
type ConvergenceReport struct {
	Z        rat.Vec
	Exact    float64
	Estimate float64
	AbsErr   float64
}

// Compare builds a ConvergenceReport at z with the given scale.
func Compare(f Func, m *quilt.Min, z rat.Vec, scale int64) (ConvergenceReport, error) {
	exact, err := ExactOnPositive(m, z)
	if err != nil {
		return ConvergenceReport{}, err
	}
	est := Estimate(f, z, scale)
	e := exact.Float()
	diff := est - e
	if diff < 0 {
		diff = -diff
	}
	return ConvergenceReport{Z: z, Exact: e, Estimate: est, AbsErr: diff}, nil
}
