package nnfunc

import (
	"fmt"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/floatdist"
	"spatialdom/internal/uncertain"
)

// Between returns U_Q: the distance distribution between object u and query
// q containing every instance pair (q_j, u_i) with value δ(q_j, u_i) and
// probability p(q_j)·p(u_i).
func Between(u, q *uncertain.Object) floatdist.Distribution { return BetweenFunc(u, q, geom.Dist) }

// BetweenFunc is Between under an arbitrary instance distance function —
// the extension point for non-Euclidean metrics (Section 2.1 notes the
// techniques carry over to any metric).
func BetweenFunc(u, q *uncertain.Object, dist func(a, b geom.Point) float64) floatdist.Distribution {
	pairs := make([]floatdist.Pair, 0, u.Len()*q.Len())
	for j := range q.Len() {
		for i := range u.Len() {
			pairs = append(pairs, floatdist.Pair{Dist: dist(q.Instance(j), u.Instance(i)), Prob: q.Prob(j) * u.Prob(i)})
		}
	}
	return floatdist.Own(pairs)
}

// BetweenInstance returns U_q: the distance distribution between object u
// and a single query instance, each atom carrying the instance probability
// p(u_i).
func BetweenInstance(u *uncertain.Object, q geom.Point) floatdist.Distribution {
	return BetweenInstanceFunc(u, q, geom.Dist)
}

// BetweenInstanceFunc is BetweenInstance under an arbitrary instance
// distance function.
func BetweenInstanceFunc(u *uncertain.Object, q geom.Point, dist func(a, b geom.Point) float64) floatdist.Distribution {
	pairs := make([]floatdist.Pair, u.Len())
	for i := range pairs {
		pairs[i] = floatdist.Pair{Dist: dist(q, u.Instance(i)), Prob: u.Prob(i)}
	}
	return floatdist.Own(pairs)
}

// aggFunc is an N1 function: a stable aggregate applied to U_Q.
type aggFunc struct {
	name string
	agg  func(floatdist.Distribution) float64
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
	return aggFunc{name: "min", agg: floatdist.Distribution.Min}
}

// MaxDist is the N1 function max(U_Q): the largest pairwise distance.
func MaxDist() Func {
	return aggFunc{name: "max", agg: floatdist.Distribution.Max}
}

// ExpectedDist is the N1 function mean(U_Q): the expected pairwise
// distance (the linear weighted aggregate of Section 3.2).
func ExpectedDist() Func {
	return aggFunc{name: "expected", agg: floatdist.Distribution.Mean}
}

// QuantileDist is the N1 function quan_φ(U_Q) of Definition 10, for
// 0 < φ <= 1. The median distance is QuantileDist(0.5).
func QuantileDist(phi float64) Func {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("nnfunc: QuantileDist phi=%g outside (0,1]", phi))
	}
	return aggFunc{
		name: fmt.Sprintf("quantile(%g)", phi),
		agg:  func(d floatdist.Distribution) float64 { return d.Quantile(phi) },
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
