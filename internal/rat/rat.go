// Package rat provides exact rational arithmetic and small-scale exact
// linear algebra used by the geometric decomposition of Section 7 of the
// paper (regions, recession cones, quilt-affine gradients).
//
// Rationals are kept in lowest terms with a positive denominator, stored as
// int64 pairs. Operations check for overflow and panic if an intermediate
// value cannot be represented; the magnitudes arising from the paper's
// constructions (small coefficient hyperplanes, small periods) are far below
// this limit, so a panic here always indicates a programming error rather
// than a data-dependent failure.
package rat

import (
	"fmt"
	"math"
)

// R is a rational number. The zero value is 0/1... callers should construct
// values via New/FromInt so the denominator invariant (den > 0, gcd=1)
// holds; the zero value R{} has den 0 and is normalized on first use.
type R struct {
	num, den int64
}

// New returns the rational num/den in lowest terms. It panics if den == 0.
func New(num, den int64) R {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return R{num, den}
}

// FromInt returns the rational n/1.
func FromInt(n int64) R { return R{n, 1} }

// Zero and One are convenience constructors.
func Zero() R { return R{0, 1} }
func One() R  { return R{1, 1} }

func (r R) norm() R {
	if r.den == 0 {
		return R{0, 1}
	}
	return r
}

// IsZero reports r == 0.
func (r R) IsZero() bool { return r.norm().num == 0 }

// IsInt reports whether r is an integer.
func (r R) IsInt() bool { return r.norm().den == 1 }

// Int returns the integer value of r. It panics if r is not an integer.
func (r R) Int() int64 {
	r = r.norm()
	if r.den != 1 {
		panic(fmt.Sprintf("rat: %s is not an integer", r))
	}
	return r.num
}

// Floor returns ⌊r⌋ as an int64.
func (r R) Floor() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Sign returns -1, 0, or +1.
func (r R) Sign() int {
	switch n := r.norm().num; {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// Neg returns -r.
func (r R) Neg() R {
	r = r.norm()
	return R{-r.num, r.den}
}

// Add returns r + s.
func (r R) Add(s R) R {
	r, s = r.norm(), s.norm()
	// a/b + c/d = (a*d + c*b) / (b*d); reduce via g = gcd(b, d) first.
	g := gcd(r.den, s.den)
	db := r.den / g
	dd := s.den / g
	num := addChecked(mulChecked(r.num, dd), mulChecked(s.num, db))
	den := mulChecked(mulChecked(db, s.den), 1)
	return New(num, den)
}

// Sub returns r - s.
func (r R) Sub(s R) R { return r.Add(s.Neg()) }

// Mul returns r * s.
func (r R) Mul(s R) R {
	r, s = r.norm(), s.norm()
	g1 := gcd(abs64(r.num), s.den)
	g2 := gcd(abs64(s.num), r.den)
	num := mulChecked(r.num/g1, s.num/g2)
	den := mulChecked(r.den/g2, s.den/g1)
	return New(num, den)
}

// Div returns r / s. It panics if s == 0.
func (r R) Div(s R) R {
	s = s.norm()
	if s.num == 0 {
		panic("rat: division by zero")
	}
	return r.Mul(R{s.den, s.num}.canon())
}

func (r R) canon() R {
	if r.den < 0 {
		r.num, r.den = -r.num, -r.den
	}
	return r
}

// Cmp compares r and s: -1 if r < s, 0 if equal, +1 if r > s.
func (r R) Cmp(s R) int { return r.Sub(s).Sign() }

// Eq reports r == s.
func (r R) Eq(s R) bool { return r.Cmp(s) == 0 }

// MulInt returns r * n.
func (r R) MulInt(n int64) R { return r.Mul(FromInt(n)) }

// Float returns the float64 approximation of r (for reporting only; all
// decisions are made with exact arithmetic).
func (r R) Float() float64 {
	r = r.norm()
	return float64(r.num) / float64(r.den)
}

// String renders r as "n" for integers or "n/d" otherwise.
func (r R) String() string {
	r = r.norm()
	if r.den == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || (a == math.MinInt64 && b == -1) {
		panic("rat: int64 overflow in multiplication")
	}
	return c
}

func addChecked(a, b int64) int64 {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		panic("rat: int64 overflow in addition")
	}
	return c
}

// LCM returns the least common multiple of a and b (both must be positive).
func LCM(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		panic("rat: LCM of nonpositive values")
	}
	return mulChecked(a/gcd(a, b), b)
}

// GCD returns the greatest common divisor of |a| and |b| (0 if both zero).
func GCD(a, b int64) int64 { return gcd(a, b) }
