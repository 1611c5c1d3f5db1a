package core

import (
	"math"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
)

// This file implements the Peer-SD check (Section 5.1.2). Theorem 12
// reduces P-SD(U,V,Q) to max-flow: build a bipartite network with source
// capacities p(u), sink capacities p(v) and an unbounded edge u→v whenever
// u ⪯Q v; P-SD holds iff the max flow equals 1 (and U_Q ≠ V_Q).
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
//  6. level-by-level G⁻ (validation) / G⁺ (pruning) networks over local
//     R-tree nodes;
//  7. the exact instance network, with admissibility u ⪯Q v decided in the
//     k-dimensional hull-distance space, abandoned before the solve when a
//     positive-mass instance has no admissible edge.

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

// instLE reports whether instance ui of u is not farther than instance vi
// of v from every hull query instance (u ⪯Q v), using the cached
// hull-distance matrices. strict additionally reports a strictly closer
// hull instance.
func (c *Checker) instLE(du, dv []float64) (le, strict bool) {
	for k := range du {
		c.Stats.InstanceComparisons++
		if du[k] > dv[k]+c.eps {
			return false, false
		}
		if du[k] < dv[k]-c.eps {
			strict = true
		}
	}
	return true, strict
}

// distSpaceThreshold is the instance count beyond which the admissibility
// matrix is built with range queries over an R-tree in the hull-distance
// space instead of all-pairs comparisons (the Section 5.1.2 note: "by
// taking advantage of the efficient range search in spatial indexing
// techniques, we can efficiently improve the network construction time").
const distSpaceThreshold = 48

// admEdge records one admissible pair u_i ⪯Q v_j of the exact P-SD network:
// the instance indices, whether some hull instance strictly separates the
// pair, and — once the network is built — the edge index.
type admEdge struct {
	i, j, e int
	strict  bool
}

// isolatedMass reports whether some instance carrying more than flowEps of
// probability is not covered by any admissible pair. Its mass cannot reach
// the other side, so the max flow falls short of 1 by more than flowEps and
// the solve would only confirm it.
func isolatedMass(probs []float64, covered []bool) bool {
	for i, p := range probs {
		if p > flowEps && !covered[i] {
			return true
		}
	}
	return false
}

// psdExact runs Theorem 12 on the instance-level network. The admissible
// pairs are collected first, so that a pair with an isolated positive-mass
// instance on either side is rejected without building or solving a
// network. The network and the admissible-pair records are carved out of
// the checker's scratch, so repeat solves do not allocate.
func (c *Checker) psdExact(su, sv *objCache) bool {
	u, v := su.obj, sv.obj
	hu, hv := c.hullDists(su), c.hullDists(sv)
	nu, nv := u.Len(), v.Len()
	adm := c.scratch.adm[:0]
	defer func() { c.scratch.adm = adm[:0] }() // retain capacity growth
	c.scratch.covered = growBools(c.scratch.covered, nu+nv)
	coveredU, coveredV := c.scratch.covered[:nu], c.scratch.covered[nu:]
	clear(c.scratch.covered)
	if nu >= distSpaceThreshold && nv >= distSpaceThreshold {
		// Distance-space construction: u ⪯Q v iff u's hull-distance vector
		// lies inside the box [0, hv[j]] — a range query.
		tree := c.distSpaceTree(su, hu)
		lo := growFloats(c.scratch.lo, len(c.hullPts))
		for k := range lo {
			lo[k] = 0
		}
		c.scratch.lo = lo
		hi := growFloats(c.scratch.hi, len(c.hullPts))
		c.scratch.hi = hi
		for j := 0; j < nv; j++ {
			// Expand the box by eps so the range query is a superset of
			// the tolerance-aware instLE test, then recheck each hit.
			for k, d := range hv[j] {
				hi[k] = d + c.eps
			}
			win := geom.Rect{Lo: lo, Hi: hi}
			c.Stats.InstanceComparisons++ // one range probe
			tree.Search(win, func(e rtree.Entry) bool {
				i := int(e.ID)
				if le, strict := c.instLE(hu[i], hv[j]); le {
					adm = append(adm, admEdge{i: i, j: j, strict: strict})
					coveredU[i], coveredV[j] = true, true
				}
				return true
			})
		}
	} else {
		for i := 0; i < nu; i++ {
			for j := 0; j < nv; j++ {
				if le, strict := c.instLE(hu[i], hv[j]); le {
					adm = append(adm, admEdge{i: i, j: j, strict: strict})
					coveredU[i], coveredV[j] = true, true
				}
			}
			if !coveredU[i] && u.Prob(i) > flowEps {
				return false // u_i is isolated: no need to look at the rest
			}
		}
	}
	if isolatedMass(u.Probs(), coveredU) || isolatedMass(v.Probs(), coveredV) {
		return false
	}
	g := &c.scratch.exact
	g.Reuse(nu + nv + 2)
	s, t := 0, nu+nv+1
	for i := 0; i < nu; i++ {
		g.AddEdge(s, 1+i, u.Prob(i))
	}
	for j := 0; j < nv; j++ {
		g.AddEdge(1+nu+j, t, v.Prob(j))
	}
	for k := range adm {
		adm[k].e = g.AddEdge(1+adm[k].i, 1+nu+adm[k].j, math.Inf(1))
	}
	c.Stats.FlowSolves++
	if g.MaxFlow(s, t) < 1-flowEps {
		return false
	}
	// A match exists. The side condition U_Q ≠ V_Q remains: if any matched
	// tuple is strictly closer at some hull instance, the CDFs differ and
	// the condition holds for free; otherwise compare the distributions.
	for _, a := range adm {
		if a.strict && g.Flow(a.e) > flowEps {
			return true
		}
	}
	return !distr.Equal(c.distQ(su), c.distQ(sv), c.eps)
}

// distSpaceTree returns (building and caching) an R-tree over the object's
// instances mapped into the k-dimensional hull-distance space.
//
//nnc:coldpath builds once per (object, search) and is cached on the objCache; warm lookups return the cached tree
func (c *Checker) distSpaceTree(oc *objCache, hd [][]float64) *rtree.Tree {
	if oc.distTree == nil {
		entries := make([]rtree.Entry, len(hd))
		for i, row := range hd {
			entries[i] = rtree.Entry{Rect: geom.PointRect(geom.Point(row)), ID: int64(i)}
		}
		oc.distTree = rtree.Bulk(entries, 16)
	}
	return oc.distTree
}

// levelDecidePSD attempts the level-by-level G⁻/G⁺ networks of Section
// 5.1.2 on local R-tree nodes. ok is false when all attempted levels are
// inconclusive.
func (c *Checker) levelDecidePSD(cu, cv *objCache) (dec, ok bool) {
	maxLvl := coarseLevels(cu, cv)
	for lvl := 1; lvl <= maxLvl; lvl++ {
		bu := c.levelInfo(cu, lvl)
		bv := c.levelInfo(cv, lvl)
		nu, nv := len(bu.nodes), len(bv.nodes)

		// G⁻ (validation): an edge U^i→V^j only when EVERY u∈U^i is at
		// least as close as every v∈V^j to every query instance, decided
		// exactly on node MBRs. |f⁻| = 1 proves a full instance match.
		gMinus := &c.scratch.gMinus
		gMinus.Reuse(nu + nv + 2)
		// G⁺ (pruning): an edge unless some query instance strictly
		// separates V^j's MBR below U^i's MBR (making u ⪯Q v impossible
		// for every pair in the nodes). |f⁺| < 1 disproves the match.
		gPlus := &c.scratch.gPlus
		gPlus.Reuse(nu + nv + 2)
		s, t := 0, nu+nv+1
		for i := 0; i < nu; i++ {
			gMinus.AddEdge(s, 1+i, bu.masses[i])
			gPlus.AddEdge(s, 1+i, bu.masses[i])
		}
		for j := 0; j < nv; j++ {
			gMinus.AddEdge(1+nu+j, t, bv.masses[j])
			gPlus.AddEdge(1+nu+j, t, bv.masses[j])
		}
		minusEdges := 0
		for i := 0; i < nu; i++ {
			ri := bu.nodes[i].Rect
			for j := 0; j < nv; j++ {
				rj := bv.nodes[j].Rect
				le, _ := c.rectLE(ri, rj)
				if le {
					gMinus.AddEdge(1+i, 1+nu+j, math.Inf(1))
					minusEdges++
				}
				// Keep the G⁺ edge unless v-side strictly beats u-side.
				if rvLE, rvStrict := c.rectLE(rj, ri); !(rvLE && rvStrict) {
					gPlus.AddEdge(1+i, 1+nu+j, math.Inf(1))
				}
			}
		}
		c.Stats.FlowSolves++
		if gPlus.MaxFlow(s, t) < 1-flowEps {
			return false, true
		}
		if minusEdges > 0 {
			c.Stats.FlowSolves++
			if gMinus.MaxFlow(s, t) >= 1-flowEps {
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
