package rat

import (
	"fmt"
	"strings"

	"crncompose/internal/vec"
)

// Vec is a vector of rationals.
type Vec []R

// NewVec copies rs into a fresh rational vector.
func NewVec(rs ...R) Vec {
	v := make(Vec, len(rs))
	copy(v, rs)
	return v
}

// VecFromInts converts an integer vector to a rational vector.
func VecFromInts(v vec.V) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = FromInt(x)
	}
	return out
}

// ZeroVec returns the d-dimensional zero vector.
func ZeroVec(d int) Vec {
	v := make(Vec, d)
	for i := range v {
		v[i] = Zero()
	}
	return v
}

// Dim returns the dimension of v.
func (v Vec) Dim() int { return len(v) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	mustDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Add(w[i])
	}
	return out
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	mustDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Sub(w[i])
	}
	return out
}

// Scale returns c*v.
func (v Vec) Scale(c R) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i].Mul(c)
	}
	return out
}

// Dot returns the inner product v · w.
func (v Vec) Dot(w Vec) R {
	mustDim(v, w)
	s := Zero()
	for i := range v {
		s = s.Add(v[i].Mul(w[i]))
	}
	return s
}

// DotInt returns v · x for an integer vector x.
func (v Vec) DotInt(x vec.V) R {
	if len(v) != len(x) {
		panic(fmt.Sprintf("rat: dimension mismatch %d vs %d", len(v), len(x)))
	}
	s := Zero()
	for i := range v {
		s = s.Add(v[i].MulInt(x[i]))
	}
	return s
}

// Eq reports componentwise equality.
func (v Vec) Eq(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !v[i].Eq(w[i]) {
			return false
		}
	}
	return true
}

// IsZero reports whether every component is 0.
func (v Vec) IsZero() bool {
	for _, r := range v {
		if !r.IsZero() {
			return false
		}
	}
	return true
}

// String renders v as "(a, b, ...)".
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, r := range v {
		parts[i] = r.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func mustDim(v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("rat: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Mat is a dense rational matrix (rows × cols), stored row-major as rows.
type Mat []Vec

// Rows and Cols return the dimensions; a 0-row matrix has 0 columns.
func (m Mat) Rows() int { return len(m) }
func (m Mat) Cols() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// Clone deep-copies the matrix.
func (m Mat) Clone() Mat {
	out := make(Mat, len(m))
	for i, r := range m {
		out[i] = r.Clone()
	}
	return out
}

// Rank returns the rank of m using exact Gaussian elimination.
func (m Mat) Rank() int {
	a := m.Clone()
	rows, cols := a.Rows(), a.Cols()
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		// Find pivot.
		pivot := -1
		for r := rank; r < rows; r++ {
			if !a[r][col].IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		// Eliminate below.
		for r := rank + 1; r < rows; r++ {
			if a[r][col].IsZero() {
				continue
			}
			factor := a[r][col].Div(a[rank][col])
			for c := col; c < cols; c++ {
				a[r][c] = a[r][c].Sub(factor.Mul(a[rank][c]))
			}
		}
		rank++
	}
	return rank
}

// NullspaceBasis returns a basis of the nullspace {x : m·x = 0}.
func (m Mat) NullspaceBasis() []Vec {
	rows, cols := m.Rows(), m.Cols()
	a := m.Clone()
	pivotCol := make([]int, 0, rows)
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		pivot := -1
		for r := rank; r < rows; r++ {
			if !a[r][col].IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		inv := One().Div(a[rank][col])
		for c := col; c < cols; c++ {
			a[rank][c] = a[rank][c].Mul(inv)
		}
		for r := 0; r < rows; r++ {
			if r == rank || a[r][col].IsZero() {
				continue
			}
			factor := a[r][col]
			for c := col; c < cols; c++ {
				a[r][c] = a[r][c].Sub(factor.Mul(a[rank][c]))
			}
		}
		pivotCol = append(pivotCol, col)
		rank++
	}
	isPivot := make([]bool, cols)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	var basis []Vec
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		x := ZeroVec(cols)
		x[free] = One()
		for r, col := range pivotCol {
			x[col] = a[r][free].Neg()
		}
		basis = append(basis, x)
	}
	return basis
}
