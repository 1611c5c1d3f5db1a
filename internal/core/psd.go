package core

import (
	"spatialdom/internal/distr"
	"spatialdom/internal/flow"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// This file implements the Peer-SD check (Section 5.1.2). Theorem 12
// reduces P-SD(U,V,Q) to a bipartite transport: the instances of U supply
// their probabilities, the instances of V demand theirs, u may ship to v
// whenever u ⪯Q v, and P-SD holds iff the whole unit of mass can be shipped
// (and U_Q ≠ V_Q).
//
// psd runs the verdict ladder of Checker.Dominates from rung 2 on (rung 1,
// the global statistics, is answered by the caller):
//
//  2. per-query-instance statistics: P-SD ⊂ SS-SD, and min/mean/max of
//     every U_q are necessary for the SS-SD scans of rung 4;
//  3. cover-based validation on MBRs (Theorem 4) and bounding hyperspheres
//     [25], with a strictness witness;
//  4. cover-based pruning by scan: ¬SS-SD implies ¬P-SD;
//  5. the geometric in-hull exit: an instance of V inside the convex hull
//     of Q can only be matched by a co-located instance of U;
//  6. level-by-level G⁻ (validation) / G⁺ (pruning) transports over local
//     R-tree nodes;
//  7. the exact instance transport, with admissibility u ⪯Q v decided in
//     the k-dimensional hull-distance space, abandoned before the solve
//     when a positive-mass instance has no admissible pair.
//
// Rungs 6 and 7 are one shape — masses on two sides, a 0/1 matrix of
// admissible pairs between them — and one solver, flow.Transport. The
// matrix is written straight into bitset rows (flow.SetPair; flow.RowWords(nv)
// words per supply atom, whatever nv is) out of the checker's scratch, the solver
// keeps a dense flow matrix and its search state between solves, and
// nothing else is built: no vertices, no edge list. Each object's distances
// to the hull query instances, which decide ⪯Q, are one flat matrix per
// object and search (objCache.hullD).

const flowEps = 1e-9

func (c *Checker) psd(u, v *uncertain.Object) bool {
	su, sv := c.summaryOf(u), c.summaryOf(v)
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	if c.cfg.Geometric {
		if holds, strict := c.geoValidate(u, v); holds && strict {
			return true
		}
	}
	if c.cfg.StatPruning && !c.perQScanLE(su, sv) {
		c.Stats.StatPrunes++
		c.Stats.ScanPrunes++
		return false
	}
	if c.cfg.Geometric && c.euclid && c.query.Dim() == 2 {
		if c.inHullExit(u, v) {
			return false
		}
	}
	if c.cfg.LevelByLevel {
		if dec, ok := c.levelDecidePSD(su, sv); ok {
			c.Stats.LevelDecisions++
			return dec
		}
	}
	return c.psdExact(su, sv)
}

// inHullExit reports whether some positive-mass instance of V lies inside
// the convex hull of the query without a co-located instance of U — in
// which case no match can cover that instance and P-SD fails. (A point in
// CH(Q) cannot be ⪯Q-dominated by any distinct point: the closed halfspace
// bounded by their bisector that contains all of Q would have to contain
// the point itself.)
func (c *Checker) inHullExit(u, v *uncertain.Object) bool {
	qpts := c.query.Points()
	for i := 0; i < v.Len(); i++ {
		vi := v.Instance(i)
		if v.Prob(i) <= flowEps || !geom.PointInHull2D(vi, qpts, c.hullIdx) {
			continue
		}
		colocated := false
		for j := 0; j < u.Len(); j++ {
			if u.Prob(j) > 0 && u.Instance(j).Equal(vi) {
				colocated = true
				break
			}
		}
		c.Stats.InstanceComparisons += int64(u.Len())
		if !colocated {
			return true
		}
	}
	return false
}

// instLE reports whether an instance of u is not farther than an instance of
// v from every hull query instance (u ⪯Q v), given the two instances' rows
// of the hull-distance matrices. strict additionally reports a strictly
// closer hull instance.
func (c *Checker) instLE(du, dv []float64) (le, strict bool) {
	le = true
	compared := 0
	for k, d := range du {
		compared++
		if d > dv[k]+c.eps {
			le, strict = false, false
			break
		}
		if d < dv[k]-c.eps {
			strict = true
		}
	}
	c.Stats.InstanceComparisons += int64(compared)
	return le, strict
}

// psdExact runs Theorem 12 on the instances. The admissible pairs are
// written first, as bitset rows next to a parallel bitset of the pairs some
// hull instance strictly separates, so that a pair of objects with an
// isolated positive-mass instance on either side is rejected without a
// solve. Rows, flow matrix and solver state are the checker's scratch, so
// repeat solves do not allocate.
func (c *Checker) psdExact(su, sv *objCache) bool {
	u, v := su.obj, sv.obj
	hu, hv := c.hullDists(su), c.hullDists(sv)
	nu, nv, h := u.Len(), v.Len(), len(c.hullPts)
	w := flow.RowWords(nv)
	adm, strict := c.scratch.bitRows(nu, w)
	t := &c.scratch.transport
	for i := 0; i < nu; i++ {
		du := hu[i*h : (i+1)*h]
		isolated := true
		for j := 0; j < nv; j++ {
			if le, st := c.instLE(du, hv[j*h:(j+1)*h]); le {
				isolated = false
				flow.SetPair(adm, w, i, j)
				if st {
					flow.SetPair(strict, w, i, j)
				}
			}
		}
		if isolated && u.Prob(i) > flowEps {
			return false // no need to look at the rest
		}
	}
	// A positive-mass instance with no admissible pair: the transport would
	// fall short of 1 by more than flowEps and the solve only confirm it.
	if t.Isolated(u.Probs(), v.Probs(), adm, flowEps) {
		return false
	}
	c.Stats.FlowSolves++
	if t.Solve(u.Probs(), v.Probs(), adm) < 1-flowEps {
		return false
	}
	// A match exists. The side condition U_Q ≠ V_Q remains: if any matched
	// tuple is strictly closer at some hull instance, the CDFs differ and
	// the condition holds for free; otherwise compare the distributions.
	// Which of the maximal assignments the solver found does not matter: a
	// full match with a strict tuple makes some U_q, hence the mixture U_Q,
	// differ from V's, so distr.Equal would say "different" too.
	if t.ShipsOver(strict, flowEps) {
		return true
	}
	return !distr.Equal(c.distQ(su), c.distQ(sv), c.eps)
}

// levelDecidePSD attempts the level-by-level G⁻/G⁺ networks of Section
// 5.1.2 on local R-tree nodes: the same transport as the exact test, with
// node masses for supplies and demands. ok is false when all attempted
// levels are inconclusive.
func (c *Checker) levelDecidePSD(cu, cv *objCache) (dec, ok bool) {
	maxLvl := coarseLevels(cu, cv)
	t := &c.scratch.transport
	for lvl := 1; lvl <= maxLvl; lvl++ {
		bu := c.levelInfo(cu, lvl)
		bv := c.levelInfo(cv, lvl)
		nu, nv := len(bu.nodes), len(bv.nodes)
		w := flow.RowWords(nv)
		// G⁻ (validation): U^i may ship to V^j only when EVERY u∈U^i is at
		// least as close as every v∈V^j to every query instance, decided
		// exactly on node MBRs. |f⁻| = 1 proves a full instance match.
		// G⁺ (pruning): U^i may ship to V^j unless some query instance
		// strictly separates V^j's MBR below U^i's MBR (making u ⪯Q v
		// impossible for every pair in the nodes). |f⁺| < 1 disproves the
		// match.
		gPlus, gMinus := c.scratch.bitRows(nu, w)
		minusEdges := 0
		for i := 0; i < nu; i++ {
			ri := bu.nodes[i].Rect
			for j := 0; j < nv; j++ {
				rj := bv.nodes[j].Rect
				if le, _ := c.rectLE(ri, rj); le {
					flow.SetPair(gMinus, w, i, j)
					minusEdges++
				}
				// Keep the G⁺ pair unless v-side strictly beats u-side.
				if rvLE, rvStrict := c.rectLE(rj, ri); !(rvLE && rvStrict) {
					flow.SetPair(gPlus, w, i, j)
				}
			}
		}
		c.Stats.FlowSolves++
		if t.Solve(bu.masses, bv.masses, gPlus) < 1-flowEps {
			return false, true
		}
		if minusEdges > 0 {
			c.Stats.FlowSolves++
			if t.Solve(bu.masses, bv.masses, gMinus) >= 1-flowEps {
				// The coarse match proves an instance-level match exists;
				// settle the ≠ side condition on the exact distributions.
				return !distr.Equal(c.distQ(cu), c.distQ(cv), c.eps), true
			}
		}
	}
	return false, false
}

// rectLE is the MBR-level u ⪯Q v test on two local-tree nodes, counted.
func (c *Checker) rectLE(a, b geom.Rect) (le, strict bool) {
	le, strict, compared := c.le(a, b)
	c.Stats.InstanceComparisons += int64(compared)
	return le, strict
}
