package core

import (
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Hooks for the external tests (package core_test), which may import the
// disk backend that this package's own tests cannot.

// BruteForceMetric is bruteForceMetric: the k-skyband IDs, sorted, under m.
var BruteForceMetric = bruteForceMetric

// RectDominator returns the rectangle predicate Algorithm 1 prunes entries
// by (rectPred.dominates) for one query, operator, filter set and metric:
// whether every object bounded by a dominates every object bounded by b.
func RectDominator(q *uncertain.Object, op Operator, cfg FilterConfig, m geom.Metric) func(a, b geom.Rect) bool {
	c := NewCheckerMetric(q, op, cfg, m)
	return func(a, b geom.Rect) bool {
		dom, _ := c.dominates(a, b)
		return dom
	}
}
