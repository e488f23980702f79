package rat

import (
	"math/big"
	"testing"
)

// Ablation (DESIGN.md): the int64-backed exact rationals used throughout
// the geometry/classification path versus math/big.Rat. The coefficient
// magnitudes in the paper's constructions are tiny, so the int64
// representation avoids heap allocation entirely.

func BenchmarkAddInt64Rat(b *testing.B) {
	x, y := New(3, 7), New(5, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x.Add(y)
		if i%64 == 0 {
			x = New(3, 7) // keep magnitudes bounded
		}
	}
}

func BenchmarkAddBigRatAblation(b *testing.B) {
	x := big.NewRat(3, 7)
	y := big.NewRat(5, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add(x, y)
		if i%64 == 0 {
			x.SetFrac64(3, 7)
		}
	}
}

func BenchmarkMulInt64Rat(b *testing.B) {
	x, y := New(3, 7), New(5, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkMulBigRatAblation(b *testing.B) {
	x := big.NewRat(3, 7)
	y := big.NewRat(5, 11)
	z := new(big.Rat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
	}
}

func BenchmarkRank(b *testing.B) {
	m := Mat{
		NewVec(FromInt(1), FromInt(2), FromInt(3)),
		NewVec(FromInt(2), FromInt(4), FromInt(7)),
		NewVec(FromInt(1), FromInt(1), FromInt(1)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Rank() != 3 {
			b.Fatal("rank wrong")
		}
	}
}
