package nnfunc

import (
	"math"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Paper Example 1 (Figure 6(b)): A_Q = {(5,.25),(8,.25),(10,.25),(23,.25)},
// A_{q1} = {(5,.5),(8,.5)}. We reconstruct coordinates that realize those
// distances on a line.
func TestBetweenPaperExample1(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0}, {15}}, nil) // q1=0, q2=15
	a := uncertain.MustNew(1, []geom.Point{{5}, {-8}}, nil) // δ(q1,a1)=5, δ(q1,a2)=8, δ(q2,a1)=10, δ(q2,a2)=23
	aq := Between(a, q)
	want := []distr.Pair{{Dist: 5, Prob: 0.25}, {Dist: 8, Prob: 0.25}, {Dist: 10, Prob: 0.25}, {Dist: 23, Prob: 0.25}}
	if aq.Len() != 4 {
		t.Fatalf("A_Q = %v", aq)
	}
	for i, w := range want {
		got := aq.Pair(i)
		if math.Abs(got.Dist-w.Dist) > 1e-9 || math.Abs(got.Prob-w.Prob) > 1e-9 {
			t.Fatalf("A_Q[%d] = %v, want %v", i, got, w)
		}
	}
	aq1 := BetweenInstance(a, geom.Point{0})
	if aq1.Len() != 2 || aq1.Pair(0).Dist != 5 || aq1.Pair(1).Dist != 8 ||
		aq1.Pair(0).Prob != 0.5 {
		t.Fatalf("A_q1 = %v", aq1)
	}
}

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
	if distr.Equal(l1, l2) {
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
