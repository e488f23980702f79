package geometry

import (
	"testing"

	"crncompose/internal/rat"
	"crncompose/internal/vec"
)

func rvec(xs ...int64) rat.Vec {
	v := make(rat.Vec, len(xs))
	for i, x := range xs {
		v[i] = rat.FromInt(x)
	}
	return v
}

func TestFMFeasibleSimple(t *testing.T) {
	// y1 ≥ 1, y2 ≥ 1, y1 + y2 ≤ 10.
	sys := NewSystem(2).
		Add(rvec(1, 0), rat.One(), false).
		Add(rvec(0, 1), rat.One(), false).
		Add(rvec(-1, -1), rat.FromInt(-10), false)
	y, ok := sys.Feasible()
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	checkSatisfies(t, sys, y)
}

func TestFMInfeasible(t *testing.T) {
	// y ≥ 2 and y ≤ 1.
	sys := NewSystem(1).
		Add(rvec(1), rat.FromInt(2), false).
		Add(rvec(-1), rat.FromInt(-1), false)
	if _, ok := sys.Feasible(); ok {
		t.Error("infeasible system reported feasible")
	}
}

func TestFMStrict(t *testing.T) {
	// y > 0 and y ≤ 0 is infeasible; y ≥ 0 and y ≤ 0 is feasible (y = 0).
	strict := NewSystem(1).
		Add(rvec(1), rat.Zero(), true).
		Add(rvec(-1), rat.Zero(), false)
	if _, ok := strict.Feasible(); ok {
		t.Error("y>0 ∧ y≤0 reported feasible")
	}
	weak := NewSystem(1).
		Add(rvec(1), rat.Zero(), false).
		Add(rvec(-1), rat.Zero(), false)
	y, ok := weak.Feasible()
	if !ok || !y[0].IsZero() {
		t.Errorf("y≥0 ∧ y≤0: got %v ok=%v", y, ok)
	}
}

func TestFMWitnessStrictness(t *testing.T) {
	// The witness must satisfy strict constraints strictly:
	// y1 > 0, y2 > 0, y1 + y2 < 1.
	sys := NewSystem(2).
		Add(rvec(1, 0), rat.Zero(), true).
		Add(rvec(0, 1), rat.Zero(), true).
		Add(rvec(-1, -1), rat.FromInt(-1), true)
	y, ok := sys.Feasible()
	if !ok {
		t.Fatal("open triangle reported infeasible")
	}
	checkSatisfies(t, sys, y)
}

func TestFMEqualityViaTwoInequalities(t *testing.T) {
	// y1 = y2 (two inequalities), y1 ≥ 3: witness on the diagonal.
	sys := NewSystem(2).
		Add(rvec(1, -1), rat.Zero(), false).
		Add(rvec(-1, 1), rat.Zero(), false).
		Add(rvec(1, 0), rat.FromInt(3), false)
	y, ok := sys.Feasible()
	if !ok {
		t.Fatal("diagonal system infeasible")
	}
	checkSatisfies(t, sys, y)
	if !y[0].Eq(y[1]) {
		t.Errorf("witness %v not on diagonal", y)
	}
}

func TestFMThreeVariables(t *testing.T) {
	// Cone: y1 ≥ y2 ≥ y3 ≥ 0 with y3 ≥ 1. Feasible; and adding y1 < y3
	// makes it infeasible.
	sys := NewSystem(3).
		Add(rvec(1, -1, 0), rat.Zero(), false).
		Add(rvec(0, 1, -1), rat.Zero(), false).
		Add(rvec(0, 0, 1), rat.One(), false)
	y, ok := sys.Feasible()
	if !ok {
		t.Fatal("chain cone infeasible")
	}
	checkSatisfies(t, sys, y)
	sys.Add(rvec(-1, 0, 1), rat.Zero(), true)
	if _, ok := sys.Feasible(); ok {
		t.Error("contradictory chain reported feasible")
	}
}

func checkSatisfies(t *testing.T, sys *System, y rat.Vec) {
	t.Helper()
	for _, c := range sys.Constraints {
		v := c.A.Dot(y).Sub(c.B)
		if c.Strict && v.Sign() <= 0 {
			t.Errorf("witness %v violates strict %s (value %s)", y, c, v)
		}
		if !c.Strict && v.Sign() < 0 {
			t.Errorf("witness %v violates %s (value %s)", y, c, v)
		}
	}
}

// fig8a builds the 2D arrangement of Fig 8a: two parallel diagonal
// hyperplanes (x1 − x2 ≥ 1 and x1 − x2 ≥ −3) and one "sum" hyperplane
// (x1 + x2 ≥ 4), creating exactly five realized regions: two finite, two
// determined eventual, and one under-determined eventual diagonal band.
func fig8a() *Arrangement {
	return NewArrangement(2,
		[]vec.V{vec.New(1, -1), vec.New(1, -1), vec.New(1, 1)},
		[]int64{1, -3, 4},
	)
}

func TestFig8aCensus(t *testing.T) {
	arr := fig8a()
	regions := arr.Census(14)
	if len(regions) != 5 {
		for _, r := range regions {
			t.Logf("%v", r)
		}
		t.Fatalf("census found %d regions, want 5 (Fig 8a)", len(regions))
	}
	var determined, underdet, eventual, finite int
	for _, r := range regions {
		if r.IsEventual() {
			eventual++
			if r.IsDetermined() {
				determined++
			} else {
				underdet++
			}
		} else {
			finite++
		}
	}
	if determined != 2 || underdet != 1 || finite != 2 {
		t.Errorf("determined=%d underdet=%d finite=%d; want 2/1/2", determined, underdet, finite)
	}
}

func TestFig8aReccDims(t *testing.T) {
	arr := fig8a()
	regions := arr.Census(14)
	for _, r := range regions {
		switch {
		case !r.IsEventual():
			if r.ReccDim() == 2 {
				t.Errorf("finite region %s has full-dimensional cone", r.Key())
			}
		case r.IsDetermined():
			if r.ReccDim() != 2 {
				t.Errorf("determined region %s has cone dim %d", r.Key(), r.ReccDim())
			}
		default:
			// The diagonal band: 1D recession cone along (1,1).
			if r.ReccDim() != 1 {
				t.Errorf("band region %s has cone dim %d, want 1", r.Key(), r.ReccDim())
			}
		}
	}
}

func TestFig8aNeighbors(t *testing.T) {
	arr := fig8a()
	regions := arr.Census(14)
	var band *Region
	var determined []*Region
	for _, r := range regions {
		if r.IsEventual() && !r.IsDetermined() {
			band = r
		} else if r.IsDetermined() {
			determined = append(determined, r)
		}
	}
	if band == nil {
		t.Fatal("no under-determined eventual region")
	}
	// Corollary 7.19: at least 2 determined neighbors.
	var neighbors int
	for _, d := range determined {
		if d.IsNeighborOf(band) {
			neighbors++
		}
	}
	if neighbors < 2 {
		t.Errorf("band has %d determined neighbors, want ≥ 2 (Cor 7.19)", neighbors)
	}
	// A region is always a neighbor of itself (recc(U) ⊆ recc(U)).
	if !band.IsNeighborOf(band) {
		t.Error("region not neighbor of itself")
	}
	// The determined regions are not neighbors of each other (their cones
	// are full-dimensional and distinct).
	if determined[0].IsNeighborOf(determined[1]) {
		t.Error("distinct determined regions reported as neighbors")
	}
}

func TestFig8aStrips(t *testing.T) {
	arr := fig8a()
	regions := arr.Census(14)
	for _, r := range regions {
		if !r.IsEventual() || r.IsDetermined() {
			continue
		}
		strips := r.Strips()
		// The band x1 − x2 ∈ {−3..0}: strips are the diagonals
		// x1 − x2 = const (4 of them), per Lemma 7.15 finitely many.
		if len(strips) != 4 {
			t.Errorf("band has %d strips, want 4", len(strips))
		}
		for _, pts := range strips {
			base := pts[0]
			for _, p := range pts[1:] {
				d := p.Sub(base)
				if d[0] != d[1] {
					t.Errorf("strip contains non-diagonal displacement %v", d)
				}
			}
		}
	}
}

// fig8c builds a 3D arrangement structurally matching Fig 8c: two pairs of
// parallel hyperplanes creating nine eventual regions with recession cones
// of dimensions 1, 2 and 3.
func fig8c() *Arrangement {
	return NewArrangement(3,
		[]vec.V{
			vec.New(1, -1, 0), vec.New(1, -1, 0),
			vec.New(1, 0, -1), vec.New(1, 0, -1),
		},
		[]int64{3, -2, 3, -2},
	)
}

func TestFig8cCensus(t *testing.T) {
	arr := fig8c()
	regions := arr.Census(12)
	if len(regions) != 9 {
		t.Fatalf("census found %d regions, want 9 (Fig 8c)", len(regions))
	}
	dims := map[int]int{}
	for _, r := range regions {
		if !r.IsEventual() {
			t.Errorf("region %s not eventual", r.Key())
		}
		dims[r.ReccDim()]++
	}
	// Center region: 1D cone; four edge regions: 2D; four corners: 3D.
	if dims[1] != 1 || dims[2] != 4 || dims[3] != 4 {
		t.Errorf("cone dimension census = %v, want map[1:1 2:4 3:4]", dims)
	}
}

func TestFig8cNeighborHierarchy(t *testing.T) {
	arr := fig8c()
	regions := arr.Census(12)
	var center *Region
	for _, r := range regions {
		if r.ReccDim() == 1 {
			center = r
		}
	}
	if center == nil {
		t.Fatal("no 1D-cone region")
	}
	// Lemma 7.18 flavor: the center's cone is included in cones of higher
	// dimension; every region of this arrangement is a neighbor of the
	// center (its cone is the shared diagonal ray).
	for _, r := range regions {
		if !r.IsNeighborOf(center) {
			t.Errorf("region %s (dim %d) is not a neighbor of the center", r.Key(), r.ReccDim())
		}
	}
	// Determined neighbors exist (Corollary 7.19).
	var det int
	for _, r := range regions {
		if r.IsDetermined() && r.IsNeighborOf(center) {
			det++
		}
	}
	if det < 2 {
		t.Errorf("center has %d determined neighbors, want ≥ 2", det)
	}
}

func TestArrangementDedup(t *testing.T) {
	// a·x ≥ b and its negation define the same hyperplane and must dedup;
	// so must scaled copies.
	arr := NewArrangement(2,
		[]vec.V{vec.New(1, -1), vec.New(-1, 1), vec.New(2, -2)},
		[]int64{1, 0, 2},
	)
	// x1-x2 ≥ 1 → hyperplane 2x1-2x2 = 1; -(x1-x2) ≥ 0 → -2x1+2x2 = -1,
	// i.e. the same hyperplane; 2x1-2x2 ≥ 2 → 4x-4y = 3, distinct.
	if arr.Len() != 2 {
		t.Errorf("dedup kept %d hyperplanes, want 2", arr.Len())
	}
}

func TestSignatureNeverZero(t *testing.T) {
	arr := fig8a()
	vec.Grid(vec.Zero(2), vec.Const(2, 9), func(x vec.V) bool {
		s := arr.SignatureAt(x) // panics on zero
		if len(s) != arr.Len() {
			t.Fatalf("signature length %d", len(s))
		}
		return true
	})
}

func TestRegionOfConsistency(t *testing.T) {
	arr := fig8a()
	regions := arr.Census(10)
	vec.Grid(vec.Zero(2), vec.Const(2, 10), func(x vec.V) bool {
		var r *Region
		for _, cand := range regions {
			if cand.Contains(x) {
				r = cand
				break
			}
		}
		if r == nil {
			t.Fatalf("no region contains %v", x)
			return false
		}
		if signKey(arr.SignatureAt(x)) != r.Key() {
			t.Fatalf("region key mismatch at %v", x)
		}
		return true
	})
}

func TestWBasisSpansCone(t *testing.T) {
	arr := fig8a()
	for _, r := range arr.Census(14) {
		if !r.IsEventual() || r.IsDetermined() {
			continue
		}
		basis := r.WBasis()
		if len(basis) != r.ReccDim() {
			t.Errorf("W basis size %d ≠ cone dim %d", len(basis), r.ReccDim())
		}
		// Fig 8a's bands recede along the positive diagonal, so W is the
		// span of (1,1).
		if len(basis) == 1 && (basis[0][0].Sign() <= 0 || !basis[0][0].Eq(basis[0][1])) {
			t.Errorf("band %s: W basis %v is not along the positive diagonal", r.Key(), basis[0])
		}
		// W is the common nullspace of the implicit equalities.
		for _, b := range basis {
			for _, m := range r.ImplicitRows() {
				if !m.Dot(b).IsZero() {
					t.Errorf("band %s: basis vector %v leaves the nullspace of %v", r.Key(), b, m)
				}
			}
		}
	}
}
