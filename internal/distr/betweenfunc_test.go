package distr

import (
	"math"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// BetweenFunc under the Euclidean distance must equal Between exactly, and
// under L1 it must use the alternative distances.
func TestBetweenFuncMatchesBetween(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{3, 4}, {6, 8}}, []float64{1, 3})

	l2 := Between(u, q)
	l2f := BetweenFunc(u, q, geom.Euclidean.Dist)
	if l2.Len() != l2f.Len() {
		t.Fatalf("lengths differ")
	}
	for i := 0; i < l2.Len(); i++ {
		if l2.Pair(i) != l2f.Pair(i) {
			t.Fatalf("atom %d differs: %v vs %v", i, l2.Pair(i), l2f.Pair(i))
		}
	}

	l1 := BetweenFunc(u, q, geom.Manhattan.Dist)
	// δ_L1((3,4),(0,0)) = 7 is the smallest L1 pair distance.
	if l1.Min() != 7 {
		t.Fatalf("L1 min = %g, want 7", l1.Min())
	}
	if Equal(l1, l2) {
		t.Fatal("L1 and L2 distributions should differ")
	}
}

func TestBetweenInstanceFuncMatches(t *testing.T) {
	u := uncertain.MustNew(1, []geom.Point{{3, 4}, {0, 5}}, nil)
	qp := geom.Point{0, 0}
	l2 := BetweenInstance(u, qp)
	l2f := BetweenInstanceFunc(u, qp, geom.Euclidean.Dist)
	for i := 0; i < l2.Len(); i++ {
		if l2.Pair(i) != l2f.Pair(i) {
			t.Fatalf("atom %d differs", i)
		}
	}
	l1 := BetweenInstanceFunc(u, qp, geom.Manhattan.Dist)
	if l1.Min() != 5 || l1.Max() != 7 {
		t.Fatalf("L1 atoms wrong: %v", l1)
	}
}

func TestPairsAccessor(t *testing.T) {
	d := MustFromPairs([]Pair{{2, 0.5}, {1, 0.5}})
	ps := d.Pairs()
	if len(ps) != 2 || ps[0].Dist != 1 || ps[1].Dist != 2 {
		t.Fatalf("Pairs = %v", ps)
	}
}

func TestEqualDifferentSupports(t *testing.T) {
	// Atoms present on only one side with non-negligible mass.
	a := MustFromPairs([]Pair{{1, 0.5}, {2, 0.5}})
	b := MustFromPairs([]Pair{{1, 0.5}, {3, 0.5}})
	if Equal(a, b) {
		t.Fatal("different supports compare equal")
	}
	// One-sided leftovers after the shared prefix.
	c := MustFromPairs([]Pair{{1, 0.5}})
	if Equal(a, c) || Equal(c, a) {
		t.Fatal("sub-distribution compares equal")
	}
	if math.Abs(a.TotalProb()-1) > 1e-12 {
		t.Fatal("total prob")
	}
}
