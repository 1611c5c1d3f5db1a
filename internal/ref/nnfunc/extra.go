package nnfunc

import (
	"fmt"
	"math"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/floatdist"
	"spatialdom/internal/uncertain"
)

// This file provides NN functions beyond the paper's instantiations,
// exercising the generality of the three families: any non-negative
// combination of stable aggregates is stable (N1), and any stable
// aggregate over the Hausdorff-style min-distance selection is counterpart
// computable (N3).

// QuantileMix is the N1 function Σ_i w_i · quan_{φ_i}(U_Q) for
// non-negative weights — a stable aggregate because each quantile is
// stable and the combination is monotone. The classic "interquartile
// profile" distance is QuantileMix([.25, .5, .75], [1, 1, 1]).
func QuantileMix(phis, weights []float64) Func {
	if len(phis) != len(weights) || len(phis) == 0 {
		panic("nnfunc: QuantileMix needs matching non-empty phis and weights")
	}
	for i, w := range weights {
		if w < 0 {
			panic("nnfunc: QuantileMix weights must be non-negative")
		}
		if phis[i] <= 0 || phis[i] > 1 {
			panic(fmt.Sprintf("nnfunc: QuantileMix phi=%g outside (0,1]", phis[i]))
		}
	}
	return aggFunc{
		name: fmt.Sprintf("quantile-mix%v", phis),
		agg: func(d floatdist.Distribution) float64 {
			var s float64
			for i, phi := range phis {
				s += weights[i] * d.Quantile(phi)
			}
			return s
		},
	}
}

// minSelection builds the Hausdorff-style selected-pairs distribution: for
// every instance u the atom (δmin(u,Q), p(u)/2) and for every query
// instance q the atom (δmin(q,U), p(q)/2).
func minSelection(u, q *uncertain.Object) floatdist.Distribution {
	pairs := make([]floatdist.Pair, 0, u.Len()+q.Len())
	for i := 0; i < u.Len(); i++ {
		pairs = append(pairs, floatdist.Pair{
			Dist: math.Sqrt(geom.MinSqDistToPoints(u.Instance(i), q.Points())),
			Prob: u.Prob(i) / 2,
		})
	}
	for j := 0; j < q.Len(); j++ {
		pairs = append(pairs, floatdist.Pair{
			Dist: math.Sqrt(geom.MinSqDistToPoints(q.Instance(j), u.Points())),
			Prob: q.Prob(j) / 2,
		})
	}
	return floatdist.MustFromPairs(pairs) // FromPairs sorts the atoms itself
}

// PartialHausdorff is the N3 function quan_φ over the Hausdorff selection:
// instead of the worst min-distance (φ = 1, the classic Hausdorff
// distance) it reports the φ-quantile, making the distance robust to
// outlier instances — the "partial Hausdorff distance" of the vision
// literature. It is counterpart computable for the same reason Hausdorff
// is (δmin only shrinks when re-selected through a match) with the stable
// quantile aggregate.
func PartialHausdorff(phi float64) Func {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("nnfunc: PartialHausdorff phi=%g outside (0,1]", phi))
	}
	return pairFunc{
		name: fmt.Sprintf("partial-hausdorff(%g)", phi),
		score: func(u, q *uncertain.Object) float64 {
			return minSelection(u, q).Quantile(phi)
		},
	}
}

// MeanHausdorff is the mean aggregate over the Hausdorff selection — the
// probability-weighted "modified Hausdorff distance" (equal to half the
// SumMinDist value under the shared mass convention).
func MeanHausdorff() Func {
	return pairFunc{
		name: "mean-hausdorff",
		score: func(u, q *uncertain.Object) float64 {
			return minSelection(u, q).Mean()
		},
	}
}
