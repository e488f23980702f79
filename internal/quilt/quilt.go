// Package quilt implements quilt-affine functions (Definition 5.1 of the
// paper): nondecreasing functions g : N^d -> Z of the form
//
//	g(x) = ∇g · x + B(x mod p)
//
// where ∇g ∈ Q^d is the gradient and B : Z^d/pZ^d -> Q the periodic offset,
// with the constraint that g(x) is always an integer. Quilt-affine functions
// have nonnegative periodic finite differences
//
//	δ_{i,a} = ∇g·e_i + B(a+e_i mod p) - B(a mod p) ∈ N,
//
// the structural property that makes them obliviously-computable (Lemma 6.1)
// and that the synth package consumes to emit CRNs.
package quilt

import (
	"fmt"
	"strings"

	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

// Func is a quilt-affine function. Construct with New; the zero value is not
// usable.
type Func struct {
	grad   rat.Vec // ∇g, length d
	period int64   // p ≥ 1
	// offsets[CongruenceIndex(a,p)] = B(a); length p^d.
	offsets []rat.R
	dim     int
}

// New builds a quilt-affine function from its gradient, period, and offset
// table indexed by vec.CongruenceIndex. It validates that g is
// integer-valued on one full period and that the finite differences are all
// nonnegative integers (i.e. g is nondecreasing as Definition 5.1 requires).
func New(grad rat.Vec, period int64, offsets []rat.R) (*Func, error) {
	d := len(grad)
	if period < 1 {
		return nil, fmt.Errorf("quilt: period %d < 1", period)
	}
	want := vec.NumClasses(period, d)
	if int64(len(offsets)) != want {
		return nil, fmt.Errorf("quilt: offset table has %d entries, want p^d = %d", len(offsets), want)
	}
	g := &Func{grad: grad.Clone(), period: period, offsets: append([]rat.R(nil), offsets...), dim: d}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(grad rat.Vec, period int64, offsets []rat.R) *Func {
	g, err := New(grad, period, offsets)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Func) validate() error {
	// Integrality: for every congruence class representative a ∈ [0,p)^d,
	// g(a) = ∇g·a + B(a) must be an integer. Then periodicity plus
	// p·∇g ∈ Z^d (checked below) gives integrality everywhere.
	for i := range g.grad {
		if !g.grad[i].MulInt(g.period).IsInt() {
			return fmt.Errorf("quilt: p·∇g not integral in component %d: p=%d, ∇g[%d]=%s", i, g.period, i, g.grad[i])
		}
		if g.grad[i].Sign() < 0 {
			return fmt.Errorf("quilt: gradient component %d is negative (%s); quilt-affine functions are nondecreasing", i, g.grad[i])
		}
	}
	classes := vec.NumClasses(g.period, g.dim)
	for idx := int64(0); idx < classes; idx++ {
		a := vec.CongruenceClass(idx, g.period, g.dim)
		val := g.grad.DotInt(a).Add(g.offsets[idx])
		if !val.IsInt() {
			return fmt.Errorf("quilt: g(%v) = %s is not an integer", a, val)
		}
	}
	// Nondecreasing: every finite difference δ_{i,a} must be a nonnegative
	// integer.
	for i := 0; i < g.dim; i++ {
		for idx := int64(0); idx < classes; idx++ {
			a := vec.CongruenceClass(idx, g.period, g.dim)
			d, err := g.FiniteDifference(i, a)
			if err != nil {
				return err
			}
			if d < 0 {
				return fmt.Errorf("quilt: finite difference δ_{%d,%v} = %d is negative; not nondecreasing", i, a, d)
			}
		}
	}
	return nil
}

// Dim returns the input arity d.
func (g *Func) Dim() int { return g.dim }

// Period returns the period p.
func (g *Func) Period() int64 { return g.period }

// Gradient returns a copy of ∇g.
func (g *Func) Gradient() rat.Vec { return g.grad.Clone() }

// Offset returns B(x mod p).
func (g *Func) Offset(x vec.V) rat.R {
	return g.offsets[vec.CongruenceIndex(x, g.period)]
}

// Eval evaluates g(x) = ∇g·x + B(x mod p). x may have negative components
// (g extends to Z^d); the result is always an integer.
func (g *Func) Eval(x vec.V) int64 {
	if len(x) != g.dim {
		panic(fmt.Sprintf("quilt: arity mismatch: g takes %d inputs, got %d", g.dim, len(x)))
	}
	v := g.grad.DotInt(x).Add(g.Offset(x))
	return v.Int()
}

// FiniteDifference returns δ_{i,a} = g(x+e_i) - g(x) for any x ≡ a (mod p).
// The value depends only on the congruence class of a. It errors if the
// difference is not an integer (impossible for validated functions).
func (g *Func) FiniteDifference(i int, a vec.V) (int64, error) {
	ei := vec.Unit(g.dim, i)
	d := g.grad[i].Add(g.Offset(a.Add(ei))).Sub(g.Offset(a))
	if !d.IsInt() {
		return 0, fmt.Errorf("quilt: non-integer finite difference δ_{%d,%v} = %s", i, a, d)
	}
	return d.Int(), nil
}

// Translate returns the quilt-affine function h(x) = g(x + n). Quilt-affinity
// is preserved by translation (used in Lemma 6.2 to obtain gk(x+n) with
// nonnegative outputs).
func (g *Func) Translate(n vec.V) *Func {
	if len(n) != g.dim {
		panic("quilt: translate arity mismatch")
	}
	classes := vec.NumClasses(g.period, g.dim)
	offsets := make([]rat.R, classes)
	for idx := int64(0); idx < classes; idx++ {
		a := vec.CongruenceClass(idx, g.period, g.dim)
		// h(a) = g(a+n) = ∇g·(a+n) + B(a+n) so
		// B_h(a) = ∇g·n + B(a+n mod p).
		offsets[idx] = g.grad.DotInt(n).Add(g.Offset(a.Add(n)))
	}
	return MustNew(g.grad, g.period, offsets)
}

// NonnegativeOn reports whether g(x) ≥ 0 for all x ≥ lo, which by
// nondecreasingness reduces to checking one period's worth of points at lo.
func (g *Func) NonnegativeOn(lo vec.V) bool {
	ok := true
	hi := lo.Add(vec.Const(g.dim, g.period-1))
	vec.Grid(lo, hi, func(x vec.V) bool {
		if g.Eval(x) < 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ScalingGradient returns ∇g, which is the ∞-scaling limit ĝ(z) = ∇g·z of g
// (Theorem 8.2: the periodic offset vanishes in the limit).
func (g *Func) ScalingGradient() rat.Vec { return g.Gradient() }

// Equal reports extensional equality of g and h on all of N^d, decided
// symbolically: equal gradients and equal values over one common period.
func (g *Func) Equal(h *Func) bool {
	if g.dim != h.dim || !g.grad.Eq(h.grad) {
		return false
	}
	p := rat.LCM(g.period, h.period)
	eq := true
	vec.Grid(vec.Zero(g.dim), vec.Const(g.dim, p-1), func(x vec.V) bool {
		if g.Eval(x) != h.Eval(x) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// String renders the function as "∇g·x + B" with the offset table.
func (g *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "quilt{grad=%s, p=%d, B=[", g.grad, g.period)
	for i, off := range g.offsets {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(off.String())
	}
	sb.WriteString("]}")
	return sb.String()
}

// Min is a pointwise minimum of finitely many quilt-affine functions, the
// "eventually-min" normal form of Theorem 5.2 condition (ii).
type Min struct {
	Terms []*Func
}

// NewMin builds the minimum of the given terms (at least one, all same
// arity).
func NewMin(terms ...*Func) (*Min, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("quilt: empty min")
	}
	d := terms[0].Dim()
	for _, t := range terms[1:] {
		if t.Dim() != d {
			return nil, fmt.Errorf("quilt: min over mixed arities %d and %d", d, t.Dim())
		}
	}
	return &Min{Terms: append([]*Func(nil), terms...)}, nil
}

// Dim returns the arity.
func (m *Min) Dim() int { return m.Terms[0].Dim() }

// Eval returns min_k g_k(x).
func (m *Min) Eval(x vec.V) int64 {
	best := m.Terms[0].Eval(x)
	for _, t := range m.Terms[1:] {
		if v := t.Eval(x); v < best {
			best = v
		}
	}
	return best
}

// String lists the terms.
func (m *Min) String() string {
	parts := make([]string, len(m.Terms))
	for i, t := range m.Terms {
		parts[i] = t.String()
	}
	return "min[" + strings.Join(parts, ", ") + "]"
}
