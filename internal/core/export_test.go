package core

import (
	"math"

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
// (MinDistRect), strictly at one — distances, never squares.
func entryDominates(c *Checker, u *uncertain.Object, r geom.Rect) bool {
	if c.op == FPlusSD {
		dom, _ := c.dominates(u.MBR(), r)
		return dom
	}
	strict := false
	for _, q := range c.hullPts {
		far := math.Inf(-1)
		for i := 0; i < u.Len(); i++ {
			if u.Prob(i) > 0 {
				far = max(far, c.metric.Dist(q, u.Instance(i)))
			}
		}
		if !within(far, c.metric.MinDistRect(q, r), &strict) {
			return false
		}
	}
	return strict
}
