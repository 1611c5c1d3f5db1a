package core

import (
	"spatialdom/internal/uncertain"
)

// The k-skyband search loop itself lives in engine.go (SearchBackend),
// shared by every storage backend; this file keeps the brute-force
// reference it is validated against.

// BruteForceK computes the k-skyband by exhaustive pairwise dominance
// counting — the reference k-skyband searches are validated against.
func BruteForceK(objs []*uncertain.Object, q *uncertain.Object, op Operator, k int, cfg FilterConfig) []*uncertain.Object {
	checker := NewChecker(q, op, cfg)
	var out []*uncertain.Object
	for _, v := range objs {
		dominators := 0
		for _, u := range objs {
			if u == v {
				continue
			}
			if checker.Dominates(u, v) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			out = append(out, v)
		}
	}
	return out
}
