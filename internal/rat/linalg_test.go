package rat

import (
	"testing"

	"crncompose/internal/vec"
)

func rv(xs ...int64) Vec {
	v := make(Vec, len(xs))
	for i, x := range xs {
		v[i] = FromInt(x)
	}
	return v
}

func TestVecOps(t *testing.T) {
	a, b := rv(1, 2), rv(3, 4)
	if got := a.Add(b); !got.Eq(rv(4, 6)) {
		t.Errorf("add = %s", got)
	}
	if got := a.Dot(b); !got.Eq(FromInt(11)) {
		t.Errorf("dot = %s", got)
	}
	if got := a.DotInt(vec.New(3, 4)); !got.Eq(FromInt(11)) {
		t.Errorf("dotint = %s", got)
	}
	if got := a.Scale(New(1, 2)); !got.Eq(NewVec(New(1, 2), One())) {
		t.Errorf("scale = %s", got)
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		m    Mat
		want int
	}{
		{"identity", Mat{rv(1, 0), rv(0, 1)}, 2},
		{"dependent rows", Mat{rv(1, 2), rv(2, 4)}, 1},
		{"zero", Mat{rv(0, 0), rv(0, 0)}, 0},
		{"wide", Mat{rv(1, 0, 1), rv(0, 1, 1)}, 2},
		{"tall", Mat{rv(1, 1), rv(1, 2), rv(1, 3)}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Rank(); got != tc.want {
				t.Errorf("rank = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestNullspace(t *testing.T) {
	// Nullspace of (1, 1, 0; 0, 0, 1) is span{(1,-1,0)}.
	m := Mat{rv(1, 1, 0), rv(0, 0, 1)}
	basis := m.NullspaceBasis()
	if len(basis) != 1 {
		t.Fatalf("nullspace dim = %d, want 1", len(basis))
	}
	for _, b := range basis {
		for _, row := range m {
			if !row.Dot(b).IsZero() {
				t.Errorf("basis vector %s not in nullspace", b)
			}
		}
	}
	// Full-rank square matrix has trivial nullspace.
	if basis := (Mat{rv(1, 0), rv(0, 1)}).NullspaceBasis(); len(basis) != 0 {
		t.Errorf("identity nullspace dim = %d", len(basis))
	}
}
