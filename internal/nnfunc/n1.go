package nnfunc

import (
	"fmt"

	"spatialdom/internal/distr"
	"spatialdom/internal/uncertain"
)

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
		out[i] = f.agg(distr.Between(o, q))
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
