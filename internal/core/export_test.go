package core

import (
	"math"
	"math/big"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Hooks for the external tests (package core_test), which may import the
// disk backend that this package's own tests cannot.

// BruteForceMetric is bruteForceMetric: the k-skyband IDs, sorted, under m.
var BruteForceMetric = bruteForceMetric

// RectDominator returns the predicate Algorithm 1 prunes entries by for one
// query, operator, filter set and metric: whether the examined object u
// dominates every object bounded by r (entryDominates).
func RectDominator(q *uncertain.Object, op Operator, cfg FilterConfig, m geom.Metric) func(u *uncertain.Object, r geom.Rect) bool {
	c := NewCheckerMetric(q, op, cfg, m)
	return func(u *uncertain.Object, r geom.Rect) bool { return entryDominates(c, u, r) }
}

// entryDominates is the band's entry test for one member, written from its
// definition and without the band: under F+SD the MBR predicate; otherwise,
// at every query instance q, u's largest distance to q over its
// positive-mass instances (the metric's Dist, which is the summary's
// distance term for term) is at most r's near distance from q
// (MinDistRect), strictly at one of positive mass — distances, never
// squares. Under S-SD a
// member that fails that row still dominates r by massBelowNear.
func entryDominates(c *Checker, u *uncertain.Object, r geom.Rect) bool {
	if c.op == FPlusSD {
		dom, _ := c.dominates(u.MBR(), r)
		return dom
	}
	strict := false
	for t := range c.posFirstLen() {
		q := c.posFirstPt(t)
		far := math.Inf(-1)
		for i := 0; i < u.Len(); i++ {
			if u.Prob(i) > 0 {
				far = max(far, c.metric.Dist(q, u.Instance(i)))
			}
		}
		if !within(far, c.metric.MinDistRect(q, r), t < c.pos, &strict) {
			strict = false
			break
		}
	}
	return strict || c.op == SSD && massBelowNear(c, u, r)
}

// massBelowNear is S-SD's mass test from its definition, on ratQ's exact
// rationals: N_r puts the integer mass of each query instance at its near
// distance to r, u's U_Q lies stochastically below it, and U_Q's least
// value lies below N_r's.
func massBelowNear(c *Checker, u *uncertain.Object, r geom.Rect) bool {
	q := c.query
	at := map[float64]*big.Rat{}
	for j := range q.Len() {
		d := c.metric.MinDistRect(q.Instance(j), r)
		if at[d] == nil {
			at[d] = new(big.Rat)
		}
		at[d].Add(at[d], new(big.Rat).SetUint64(distr.Units(q.Prob(j))))
	}
	n, uq := newRatDist(at), ratQ(q, u, c.metric, -1)
	return uq.deficit(n).Sign() <= 0 && uq.vals[0] < n.vals[0]
}
