package vec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBasicArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  V
		want V
	}{
		{"add", New(1, 2, 3).Add(New(4, 5, 6)), New(5, 7, 9)},
		{"sub", New(4, 5, 6).Sub(New(1, 2, 3)), New(3, 3, 3)},
		{"scale", New(1, -2, 3).Scale(-2), New(-2, 4, -6)},
		{"unit", Unit(3, 1), New(0, 1, 0)},
		{"const", Const(2, 7), New(7, 7)},
		{"drop", New(1, 2, 3).Drop(1), New(1, 3)},
		{"mod", New(-1, 5, 7).Mod(3), New(2, 2, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.got.Eq(tc.want) {
				t.Errorf("got %v, want %v", tc.got, tc.want)
			}
		})
	}
}

func TestDotAndOrder(t *testing.T) {
	if got := New(1, 2, 3).Dot(New(4, 5, 6)); got != 32 {
		t.Errorf("dot = %d, want 32", got)
	}
	if !New(1, 2).Leq(New(1, 3)) {
		t.Error("(1,2) ≤ (1,3) should hold")
	}
	if New(2, 2).Leq(New(1, 3)) {
		t.Error("(2,2) ≤ (1,3) should not hold")
	}
	if !New(1, 2).Less(New(1, 3)) {
		t.Error("(1,2) < (1,3) should hold")
	}
	if New(1, 2).Less(New(1, 2)) {
		t.Error("v < v should not hold")
	}
}

func TestCongruence(t *testing.T) {
	for _, p := range []int64{1, 2, 3, 5} {
		for d := 1; d <= 3; d++ {
			n := NumClasses(p, d)
			seen := make(map[int64]bool)
			Grid(Zero(d), Const(d, p-1), func(x V) bool {
				idx := CongruenceIndex(x, p)
				if idx < 0 || idx >= n {
					t.Fatalf("index %d out of range [0,%d)", idx, n)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d for %v", idx, x)
				}
				seen[idx] = true
				back := CongruenceClass(idx, p, d)
				if !back.Eq(x) {
					t.Fatalf("roundtrip %v -> %d -> %v", x, idx, back)
				}
				return true
			})
			if int64(len(seen)) != n {
				t.Fatalf("p=%d d=%d: saw %d classes, want %d", p, d, len(seen), n)
			}
		}
	}
}

func TestCongruenceIndexInvariantUnderShift(t *testing.T) {
	// Property: CongruenceIndex(x, p) == CongruenceIndex(x + p*z, p).
	err := quick.Check(func(a, b, c int8, za, zb, zc int8) bool {
		x := New(int64(a)&63, int64(b)&63, int64(c)&63)
		z := New(int64(za), int64(zb), int64(zc))
		p := int64(4)
		return CongruenceIndex(x, p) == CongruenceIndex(x.Add(z.Scale(p)), p)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestGridEnumeration(t *testing.T) {
	var count int
	Grid(New(0, 0), New(2, 3), func(x V) bool {
		count++
		return true
	})
	if count != 12 {
		t.Errorf("grid count = %d, want 12", count)
	}
	// Early stop.
	count = 0
	Grid(New(0, 0), New(2, 3), func(x V) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early-stop count = %d, want 5", count)
	}
	// Empty grid.
	count = 0
	Grid(New(1), New(0), func(x V) bool { count++; return true })
	if count != 0 {
		t.Errorf("empty grid visited %d points", count)
	}
	// 0-dimensional grid has exactly one point.
	count = 0
	Grid(V{}, V{}, func(x V) bool { count++; return true })
	if count != 1 {
		t.Errorf("0-dim grid visited %d points, want 1", count)
	}
}

func TestFindNondecreasingPair(t *testing.T) {
	// A strictly decreasing-in-one-coordinate sequence in N^2 must still
	// contain a nondecreasing pair once long enough (Dickson's lemma), but
	// short antichains exist.
	anti := []V{New(0, 2), New(1, 1), New(2, 0)}
	if i, j := FindNondecreasingPair(anti); i != -1 || j != -1 {
		t.Errorf("antichain produced pair (%d,%d)", i, j)
	}
	seq := []V{New(3, 0), New(2, 2), New(1, 1), New(2, 3)}
	i, j := FindNondecreasingPair(seq)
	if i == -1 {
		t.Fatal("no pair found")
	}
	if !seq[i].Leq(seq[j]) || i >= j {
		t.Errorf("invalid pair (%d,%d)", i, j)
	}
}

func TestDicksonRandomSequences(t *testing.T) {
	// Property: any 100-element sequence over [0,3]^2 has a nondecreasing
	// pair (max antichain size in {0..3}^2 under ≤ is 4).
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 50; trial++ {
		seq := make([]V, 100)
		for i := range seq {
			seq[i] = New(rng.Int64N(4), rng.Int64N(4))
		}
		if i, _ := FindNondecreasingPair(seq); i == -1 {
			t.Fatal("Dickson pair missing from long bounded sequence")
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	keys := make(map[string]V)
	Grid(New(0, 0), New(5, 5), func(x V) bool {
		k := x.Key()
		if prev, ok := keys[k]; ok {
			t.Fatalf("key collision: %v and %v -> %q", prev, x, k)
		}
		keys[k] = x.Clone()
		return true
	})
}

func TestStringFormat(t *testing.T) {
	if got := New(1, -2).String(); got != "(1, -2)" {
		t.Errorf("String = %q", got)
	}
}

// splitmix64 is splitmix64's output function, a well-mixed 64-bit hash.
func splitmix64(k uint64) uint64 {
	k = (k ^ k>>30) * 0xbf58476d1ce4e5b9
	k = (k ^ k>>27) * 0x94d049bb133111eb
	return k ^ k>>31
}

func TestHashShard(t *testing.T) {
	// Shard selection uses the top bits, probe position the low bits: the
	// shard index must always be in range, 0 bits must collapse to shard 0,
	// and a spread of well-mixed hashes must touch many shards.
	if HashShard(0xFFFFFFFFFFFFFFFF, 0) != 0 {
		t.Error("0 bits must map to shard 0")
	}
	const bits = 7
	seen := make(map[uint64]bool)
	for x := int64(0); x < 2000; x++ {
		h := splitmix64(uint64(x))
		s := HashShard(h, bits)
		if s >= 1<<bits {
			t.Fatalf("shard %d out of range for %d bits", s, bits)
		}
		seen[s] = true
	}
	if len(seen) < (1<<bits)*3/4 {
		t.Errorf("2000 hashes hit only %d/%d shards — top bits poorly mixed", len(seen), 1<<bits)
	}
}
