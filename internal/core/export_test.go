package core

import (
	"math"

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
// at every hull query instance q, u's largest distance to q over its
// positive-mass instances (the metric's Dist, which is the summary's
// distance term for term) is at most r's near distance from q
// (MinDistRect), strictly at one — distances, never squares. Under S-SD a
// member that fails that row still dominates r by massBelowNear.
func entryDominates(c *Checker, u *uncertain.Object, r geom.Rect) bool {
	if c.op == FPlusSD {
		dom, _ := c.dominates(u.MBR(), r)
		return dom
	}
	strict := false
	for t := range c.hullLen() {
		q := c.hullPt(t)
		far := math.Inf(-1)
		for i := 0; i < u.Len(); i++ {
			if u.Prob(i) > 0 {
				far = max(far, c.metric.Dist(q, u.Instance(i)))
			}
		}
		if !within(far, c.metric.MinDistRect(q, r), &strict) {
			strict = false
			break
		}
	}
	return strict || c.op == SSD && massBelowNear(c, u, r)
}

// massBelowNear is S-SD's mass test from its definition: N_r, the near
// distance from every query instance weighted by its probability
// (distr.FromPairs, which drops zero masses), and u's U_Q. U_Q's largest
// positive value is at most N_r's; at every value of either, U_Q's CDF is
// at least N_r's less MassBound(|U_Q|)/2; and some atom of U_Q below N_r's
// least value carries more than massWitness.
func massBelowNear(c *Checker, u *uncertain.Object, r geom.Rect) bool {
	q := c.query
	atoms := make([]distr.Pair, q.Len())
	for j := range atoms {
		atoms[j] = distr.Pair{Dist: c.metric.MinDistRect(q.Instance(j), r), Prob: q.Prob(j)}
	}
	n := distr.MustFromPairs(atoms)
	su := c.summaryOf(u)
	uq := c.distQ(su)
	if su.stat.Max > n.Max() {
		return false
	}
	tol := uncertain.MassBound(uq.Len()) / 2
	witness := false
	for _, a := range uq.Pairs() {
		witness = witness || a.Dist < n.Min() && a.Prob > massWitness
	}
	for _, d := range []distr.Distribution{uq, n} {
		for _, a := range d.Pairs() {
			if uq.CDF(a.Dist) < n.CDF(a.Dist)-tol {
				return false
			}
		}
	}
	return witness
}
