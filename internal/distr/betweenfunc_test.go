package distr

import (
	"math"
	"testing"

	"spatialdom/internal/ref/floatdist"
)

func TestEqualDifferentSupports(t *testing.T) {
	// Atoms present on only one side with non-negligible mass.
	a := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 2, Prob: 0.5}})
	b := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 3, Prob: 0.5}})
	if equal(a, b) {
		t.Fatal("different supports compare equal")
	}
	// One-sided leftovers after the shared prefix.
	c := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}})
	if equal(a, c) || equal(c, a) {
		t.Fatal("sub-distribution compares equal")
	}
	if math.Abs(a.TotalProb()-1) > 1e-12 {
		t.Fatal("total prob")
	}
}
