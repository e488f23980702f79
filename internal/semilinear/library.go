package semilinear

import (
	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

// This file holds the worked examples from the paper as explicit semilinear
// functions, used by tests, the classifier, and the figure harness.

// Identity returns f(x) = x on N.
func Identity() *Func {
	return MustNew(1, "id", Piece{
		Domain: True{D: 1},
		Grad:   rat.NewVec(rat.One()),
		Off:    rat.Zero(),
	})
}

// Double returns f(x) = 2x (Fig 1, computed by X → 2Y).
func Double() *Func {
	return MustNew(1, "double", Piece{
		Domain: True{D: 1},
		Grad:   rat.NewVec(rat.FromInt(2)),
		Off:    rat.Zero(),
	})
}

// Min2 returns f(x1,x2) = min(x1,x2) (Fig 1, computed by X1+X2 → Y).
func Min2() *Func {
	le := Threshold{A: vec.New(-1, 1), B: 0} // x2 - x1 ≥ 0 ⇔ x1 ≤ x2
	return MustNew(2, "min",
		Piece{Domain: le, Grad: rat.NewVec(rat.One(), rat.Zero()), Off: rat.Zero()},
		Piece{Domain: Not{Op: le}, Grad: rat.NewVec(rat.Zero(), rat.One()), Off: rat.Zero()},
	)
}

// Max2 returns f(x1,x2) = max(x1,x2) (Fig 1; semilinear and nondecreasing
// but NOT obliviously-computable, Section 4).
func Max2() *Func {
	le := Threshold{A: vec.New(-1, 1), B: 0} // x1 ≤ x2
	return MustNew(2, "max",
		Piece{Domain: le, Grad: rat.NewVec(rat.Zero(), rat.One()), Off: rat.Zero()},
		Piece{Domain: Not{Op: le}, Grad: rat.NewVec(rat.One(), rat.Zero()), Off: rat.Zero()},
	)
}

// MinConst1 returns f(x) = min(1, x) (Fig 2).
func MinConst1() *Func {
	ge1 := Threshold{A: vec.New(1), B: 1} // x ≥ 1
	return MustNew(1, "min(1,x)",
		Piece{Domain: ge1, Grad: rat.ZeroVec(1), Off: rat.One()},
		Piece{Domain: Not{Op: ge1}, Grad: rat.ZeroVec(1), Off: rat.Zero()},
	)
}

// FloorThreeHalves returns f(x) = ⌊3x/2⌋ (Fig 3a), quilt-affine with
// period 2: (3/2)x + B(x mod 2), B(0)=0, B(1)=-1/2.
func FloorThreeHalves() *Func {
	even := Mod{A: vec.New(1), B: 0, C: 2}
	return MustNew(1, "floor(3x/2)",
		Piece{Domain: even, Grad: rat.NewVec(rat.New(3, 2)), Off: rat.Zero()},
		Piece{Domain: Not{Op: even}, Grad: rat.NewVec(rat.New(3, 2)), Off: rat.New(-1, 2)},
	)
}

// Fig3b returns the 2D quilt-affine function of Fig 3b:
// g(x) = (1,2)·x + B(x mod 3) with B(x) = 0 except
// B(1,2) = B(2,2) = B(2,1) = -1 (any constant bump preserving
// nondecreasingness; the paper leaves the bump values unspecified, we pick
// -1 which keeps all finite differences nonnegative).
func Fig3b() *Func {
	bump := Or{Ops: []Formula{
		And{Ops: []Formula{Mod{A: vec.New(1, 0), B: 1, C: 3}, Mod{A: vec.New(0, 1), B: 2, C: 3}}},
		And{Ops: []Formula{Mod{A: vec.New(1, 0), B: 2, C: 3}, Mod{A: vec.New(0, 1), B: 2, C: 3}}},
		And{Ops: []Formula{Mod{A: vec.New(1, 0), B: 2, C: 3}, Mod{A: vec.New(0, 1), B: 1, C: 3}}},
	}}
	grad := rat.NewVec(rat.One(), rat.FromInt(2))
	return MustNew(2, "fig3b",
		Piece{Domain: bump, Grad: grad, Off: rat.FromInt(-1)},
		Piece{Domain: Not{Op: bump}, Grad: grad, Off: rat.Zero()},
	)
}

// Fig7 returns the motivating example of Section 7.1:
//
//	f(x1,x2) = x1+1 if x1 < x2   (region D1)
//	           x2+1 if x1 > x2   (region D2)
//	           x1   if x1 = x2   (region U)
//
// It is obliviously-computable with eventually-min representation
// f = min(x1+1, x2+1, ⌈(x1+x2)/2⌉).
func Fig7() *Func {
	lt := Threshold{A: vec.New(-1, 1), B: 1} // x2 - x1 ≥ 1 ⇔ x1 < x2
	gt := Threshold{A: vec.New(1, -1), B: 1} // x1 > x2
	eq := And{Ops: []Formula{Not{Op: lt}, Not{Op: gt}}}
	return MustNew(2, "fig7",
		Piece{Domain: lt, Grad: rat.NewVec(rat.One(), rat.Zero()), Off: rat.One()},
		Piece{Domain: gt, Grad: rat.NewVec(rat.Zero(), rat.One()), Off: rat.One()},
		Piece{Domain: eq, Grad: rat.NewVec(rat.One(), rat.Zero()), Off: rat.Zero()},
	)
}

// Equation2 returns the counterexample (2) of Section 7.4:
//
//	f(x1,x2) = x1+x2+1 if x1 ≠ x2
//	           x1+x2   if x1 = x2
//
// Semilinear and nondecreasing but NOT obliviously-computable: the single
// affine function is depressed along the diagonal and no quilt-affine
// extension from the strip eventually dominates f.
func Equation2() *Func {
	lt := Threshold{A: vec.New(-1, 1), B: 1}
	gt := Threshold{A: vec.New(1, -1), B: 1}
	neq := Or{Ops: []Formula{lt, gt}}
	grad := rat.NewVec(rat.One(), rat.One())
	return MustNew(2, "eq2",
		Piece{Domain: neq, Grad: grad, Off: rat.One()},
		Piece{Domain: Not{Op: neq}, Grad: grad, Off: rat.Zero()},
	)
}

// SumPlusMin returns f(x1,x2) = x1 + x2 + min(x1,x2): obliviously-computable,
// used as a nontrivial 2D test beyond the paper's figures.
func SumPlusMin() *Func {
	le := Threshold{A: vec.New(-1, 1), B: 0}
	return MustNew(2, "sum+min",
		Piece{Domain: le, Grad: rat.NewVec(rat.FromInt(2), rat.One()), Off: rat.Zero()},
		Piece{Domain: Not{Op: le}, Grad: rat.NewVec(rat.One(), rat.FromInt(2)), Off: rat.Zero()},
	)
}

// Fig4a returns a function in the spirit of Fig 4a: arbitrary nondecreasing
// values in the finite region x < (2,2), eventual min of quilt-affine
// functions for x ≥ (2,2), and 1D quilt-affine behavior on the fixed-input
// borders. Concretely:
//
//	f(x) = min(x1 + x2, 2·x1 + 1, 2·x2 + 1)   for x ≥ (2,2)
//	f(x) = table values in the finite/border regions, nondecreasing.
//
// The whole thing is expressible as min(x1+x2, 2x1+1, 2x2+1) clipped below
// by nothing — in fact that min is itself semilinear, nondecreasing and
// satisfies Theorem 5.2, so we use it everywhere (its restrictions
// f[x(i)→j] = min(j+x, 2j+1, 2x+1) are 1D and eventually affine).
func Fig4a() *Func {
	// Domains: which of the three affine terms is the minimum.
	// t1 = x1+x2, t2 = 2x1+1, t3 = 2x2+1.
	// t1 ≤ t2 ⇔ x2 ≤ x1+1 ⇔ x1 - x2 ≥ -1.
	t1le2 := Threshold{A: vec.New(1, -1), B: -1}
	// t1 ≤ t3 ⇔ x1 ≤ x2+1 ⇔ x2 - x1 ≥ -1.
	t1le3 := Threshold{A: vec.New(-1, 1), B: -1}
	// t2 ≤ t3 ⇔ x1 ≤ x2.
	t2le3 := Threshold{A: vec.New(-1, 1), B: 0}

	d1 := And{Ops: []Formula{t1le2, t1le3}}                // t1 wins
	d2 := And{Ops: []Formula{Not{Op: d1}, t2le3}}          // t2 wins
	d3 := And{Ops: []Formula{Not{Op: d1}, Not{Op: t2le3}}} // t3 wins
	return MustNew(2, "fig4a",
		Piece{Domain: d1, Grad: rat.NewVec(rat.One(), rat.One()), Off: rat.Zero()},
		Piece{Domain: d2, Grad: rat.NewVec(rat.FromInt(2), rat.Zero()), Off: rat.One()},
		Piece{Domain: d3, Grad: rat.NewVec(rat.Zero(), rat.FromInt(2)), Off: rat.One()},
	)
}
