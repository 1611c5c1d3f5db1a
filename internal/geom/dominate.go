package geom

// This file implements the exact MBR-level full spatial dominance test used
// by the paper for cover-based validation (Theorem 4), following the
// "optimal MBR pruning" decision criterion of Emrich et al. [16].
//
// F-SD(U_mbr, V_mbr, Q_mbr) holds iff for EVERY point q in the query
// rectangle Q, MaxDist(q, U) <= MinDist(q, V). Because both sides are
// non-negative, the condition is equivalent to
//
//	max over q in Q of ( MaxDist²(q,U) − MinDist²(q,V) ) <= 0,
//
// and the objective is separable per dimension:
//
//	MaxDist²(q,U) − MinDist²(q,V) = Σ_i [ maxd_i(q_i)² − mind_i(q_i)² ].
//
// Each one-dimensional term is piecewise quadratic with quadratic
// coefficient 0 or +1 (convex on every piece), so its maximum over the query
// interval is attained at the interval endpoints or at a breakpoint. The
// breakpoints are the midpoint of U's extent (where the farthest corner of U
// flips) and the two faces of V's extent (where the closest point of V stops
// tracking q). Evaluating those at most five candidate positions per
// dimension yields an EXACT O(d) test — no approximation, matching the
// optimality result of [16].

// maxd2At returns maxd_i(q)² for a 1-D extent [lo, hi]: the squared distance
// from coordinate q to the farther of the two faces.
func maxd2At(q, lo, hi float64) float64 {
	a := q - lo
	if a < 0 {
		a = -a
	}
	b := q - hi
	if b < 0 {
		b = -b
	}
	if b > a {
		a = b
	}
	return a * a
}

// mind2At returns mind_i(q)² for a 1-D extent [lo, hi]: the squared distance
// from coordinate q to the interval (zero inside).
func mind2At(q, lo, hi float64) float64 {
	if q < lo {
		d := lo - q
		return d * d
	}
	if q > hi {
		d := q - hi
		return d * d
	}
	return 0
}

// dimWorst returns the maximum over q in [qlo, qhi] of
// maxd²(q, [ulo,uhi]) − mind²(q, [vlo,vhi]).
func dimWorst(qlo, qhi, ulo, uhi, vlo, vhi float64) float64 {
	eval := func(q float64) float64 { return maxd2At(q, ulo, uhi) - mind2At(q, vlo, vhi) }
	worst := eval(qlo)
	if w := eval(qhi); w > worst {
		worst = w
	}
	// Piece breakpoints interior to the query interval.
	for _, bp := range [3]float64{(ulo + uhi) / 2, vlo, vhi} {
		if bp > qlo && bp < qhi {
			if w := eval(bp); w > worst {
				worst = w
			}
		}
	}
	return worst
}

// FSDMBR reports whether the rectangle U fully spatially dominates the
// rectangle V with respect to every possible query instance inside the
// rectangle Q; that is, whether max_{q∈Q} MaxDist(q,U) − MinDist(q,V) <= 0.
// The test is exact (Emrich et al. [16]).
func FSDMBR(u, v, q Rect) bool {
	// Per-dimension contributions may be negative (the slack from V being
	// far away in one dimension can absorb an excess in another), so the sum
	// must be completed before deciding.
	var worst float64
	for i := range q.Lo {
		worst += dimWorst(q.Lo[i], q.Hi[i], u.Lo[i], u.Hi[i], v.Lo[i], v.Hi[i])
	}
	return worst <= 0
}
