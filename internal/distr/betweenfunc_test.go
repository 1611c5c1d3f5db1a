package distr

import (
	"math"
	"testing"
)

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
