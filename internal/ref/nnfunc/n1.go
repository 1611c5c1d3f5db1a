package nnfunc

import (
	"fmt"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Between returns U_Q: the distance distribution between object u and query
// q containing every instance pair (q_j, u_i) with value δ(q_j, u_i) and
// probability p(q_j)·p(u_i).
func Between(u, q *uncertain.Object) distr.Distribution { return BetweenFunc(u, q, geom.Dist) }

// BetweenFunc is Between under an arbitrary instance distance function —
// the extension point for non-Euclidean metrics (Section 2.1 notes the
// techniques carry over to any metric).
func BetweenFunc(u, q *uncertain.Object, dist func(a, b geom.Point) float64) distr.Distribution {
	m := u.Len()
	runs := make([]distr.Pair, m*q.Len())
	distr.Summarize(runs, nil, u, q, dist)
	return WeightRuns(runs, runs, m, q)
}

// BetweenInstance returns U_q: the distance distribution between object u
// and a single query instance, each atom carrying the instance probability
// p(u_i).
func BetweenInstance(u *uncertain.Object, q geom.Point) distr.Distribution {
	return BetweenInstanceFunc(u, q, geom.Dist)
}

// BetweenInstanceFunc is BetweenInstance under an arbitrary instance
// distance function.
func BetweenInstanceFunc(u *uncertain.Object, q geom.Point, dist func(a, b geom.Point) float64) distr.Distribution {
	pairs := make([]distr.Pair, u.Len())
	for i := range pairs {
		pairs[i] = distr.Pair{Dist: dist(q, u.Instance(i)), Prob: u.Prob(i)}
	}
	return distr.Own(pairs)
}

// WeightRuns builds U_Q out of a distr.Summarize buffer: the atoms are
// copied into dst (same length, and it may be runs itself; ownership passes
// to the result) with run j's probabilities scaled by p(q_j), then sorted as
// one distribution. It is BetweenFunc's path, and the reference
// distr.MergeRuns is held to; a search builds U_Q with MergeRuns.
func WeightRuns(dst, runs []distr.Pair, m int, q *uncertain.Object) distr.Distribution {
	for j := 0; j < q.Len(); j++ {
		qprob := q.Prob(j)
		for i := j * m; i < (j+1)*m; i++ {
			dst[i] = distr.Pair{Dist: runs[i].Dist, Prob: qprob * runs[i].Prob}
		}
	}
	return distr.Own(dst)
}

// aggFunc is an N1 function: a stable aggregate applied to U_Q.
type aggFunc struct {
	name string
	agg  func(distr.Distribution) float64
}

func (f aggFunc) Name() string   { return f.name }
func (f aggFunc) Family() Family { return N1 }

func (f aggFunc) Scores(objs []*uncertain.Object, q *uncertain.Object) []float64 {
	out := make([]float64, len(objs))
	for i, o := range objs {
		out[i] = f.agg(Between(o, q))
	}
	return out
}

// MinDist is the N1 function min(U_Q): the smallest pairwise distance.
func MinDist() Func {
	return aggFunc{name: "min", agg: distr.Distribution.Min}
}

// MaxDist is the N1 function max(U_Q): the largest pairwise distance.
func MaxDist() Func {
	return aggFunc{name: "max", agg: distr.Distribution.Max}
}

// ExpectedDist is the N1 function mean(U_Q): the expected pairwise
// distance (the linear weighted aggregate of Section 3.2).
func ExpectedDist() Func {
	return aggFunc{name: "expected", agg: distr.Distribution.Mean}
}

// QuantileDist is the N1 function quan_φ(U_Q) of Definition 10, for
// 0 < φ <= 1. The median distance is QuantileDist(0.5).
func QuantileDist(phi float64) Func {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("nnfunc: QuantileDist phi=%g outside (0,1]", phi))
	}
	return aggFunc{
		name: fmt.Sprintf("quantile(%g)", phi),
		agg:  func(d distr.Distribution) float64 { return d.Quantile(phi) },
	}
}

// N1Suite returns a representative selection of N1 functions used by tests
// and examples.
func N1Suite() []Func {
	return []Func{
		MinDist(),
		MaxDist(),
		ExpectedDist(),
		QuantileDist(0.25),
		QuantileDist(0.5),
		QuantileDist(0.75),
		QuantileDist(1.0),
		QuantileMix([]float64{0.25, 0.5, 0.75}, []float64{1, 1, 1}),
	}
}
