package nnfunc

import (
	"math"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/maxflow"
	"spatialdom/internal/uncertain"
)

// This file implements the selected-pairs family N3 (Section 3.4 and
// Appendix A): functions that score an object from a subset of its distance
// distribution, chosen by the function itself.

type pairFunc struct {
	name  string
	score func(u, q *uncertain.Object) float64
}

func (f pairFunc) Name() string   { return f.name }
func (f pairFunc) Family() Family { return N3 }

func (f pairFunc) Scores(objs []*uncertain.Object, q *uncertain.Object) []float64 {
	out := make([]float64, len(objs))
	for i, o := range objs {
		out[i] = f.score(o, q)
	}
	return out
}

// Hausdorff is the Hausdorff distance D_h(U, Q) of Definition 11:
// max( max_u δmin(u,Q), max_q δmin(q,U) ).
func Hausdorff() Func {
	return pairFunc{name: "hausdorff", score: hausdorff}
}

func hausdorff(u, q *uncertain.Object) float64 {
	var worst float64
	for i := 0; i < u.Len(); i++ {
		d := math.Sqrt(geom.MinSqDistToPoints(u.Instance(i), q.Points()))
		if d > worst {
			worst = d
		}
	}
	for j := 0; j < q.Len(); j++ {
		d := math.Sqrt(geom.MinSqDistToPoints(q.Instance(j), u.Points()))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// SumMinDist is the probability-weighted sum-of-minimal-distances of Ramon
// and Bruynooghe [27]: Σ_u p(u)·δmin(u,Q) + Σ_q p(q)·δmin(q,U).
func SumMinDist() Func {
	return pairFunc{name: "sum-min", score: sumMin}
}

func sumMin(u, q *uncertain.Object) float64 {
	var s float64
	for i := 0; i < u.Len(); i++ {
		s += u.Prob(i) * math.Sqrt(geom.MinSqDistToPoints(u.Instance(i), q.Points()))
	}
	for j := 0; j < q.Len(); j++ {
		s += q.Prob(j) * math.Sqrt(geom.MinSqDistToPoints(q.Instance(j), u.Points()))
	}
	return s
}

// EMD is the Earth Mover's distance between the object's and the query's
// instance distributions (equal total mass 1), computed exactly by
// min-cost max-flow on the distance network of Appendix A.
func EMD() Func {
	return pairFunc{name: "emd", score: EMDValue}
}

// Netflow is the Netflow distance of Definition 12. Under the paper's
// setting (total probability mass 1 per object) it coincides with the
// Earth Mover's distance; it is exposed under its own name for parity with
// the paper.
func Netflow() Func {
	return pairFunc{name: "netflow", score: EMDValue}
}

// EMDValue computes the Earth Mover's / Netflow distance between u and q:
// the minimal cost of a flow of value 1 through the bipartite distance
// network with source capacities p(q), sink capacities p(u) and per-unit
// edge costs δ(u, q).
func EMDValue(u, q *uncertain.Object) float64 {
	nu, nq := u.Len(), q.Len()
	g := maxflow.NewNetwork(nu + nq + 2)
	s, t := 0, nu+nq+1
	for j := 0; j < nq; j++ {
		g.AddEdgeCost(s, 1+j, q.Prob(j), 0)
	}
	for i := 0; i < nu; i++ {
		g.AddEdgeCost(1+nq+i, t, u.Prob(i), 0)
	}
	for j := 0; j < nq; j++ {
		for i := 0; i < nu; i++ {
			g.AddEdgeCost(1+j, 1+nq+i, math.Inf(1), geom.Dist(q.Instance(j), u.Instance(i)))
		}
	}
	_, cost := g.MinCostMaxFlow(s, t)
	return cost
}

// N3Suite returns a representative selection of N3 functions.
func N3Suite() []Func {
	return []Func{
		Hausdorff(),
		SumMinDist(),
		EMD(),
		Netflow(),
		PartialHausdorff(0.75),
		MeanHausdorff(),
	}
}

// AllSuites returns all implemented functions grouped by family.
func AllSuites() map[Family][]Func {
	return map[Family][]Func{N1: N1Suite(), N2: N2Suite(), N3: N3Suite()}
}
