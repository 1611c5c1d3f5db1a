package core

import (
	"spatialdom/internal/distr"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
)

// This file implements the level-by-level pruning/validation of Section 5.1
// ("L" in the Appendix C ablation) for S-SD and SS-SD: dominance checks are
// first attempted against coarse virtual instances — the nodes of the
// objects' local R-trees — and only fall through to the exact scans when the
// coarse level is inconclusive. P-SD has no such rung (psd.go).
//
// For the stochastic operators, a local-tree level yields two bounding
// distributions per object: LB replaces every instance distance by the
// node's MinDist (so LB ≤st U_Q) and UB by the node's MaxDist (so
// U_Q ≤st UB). Then
//
//	UB(U) ≤st LB(V)  (and UB(U) ≠ LB(V))  ⇒  SD holds (validation),
//	¬( LB(U) ≤st UB(V) )                  ⇒  SD fails (pruning).
//
// The ≠ side condition follows because if U_Q = V_Q the whole chain
// U_Q ≤st UB(U) ≤st LB(V) ≤st V_Q collapses to equality.

// levelBounds caches what the level-by-level filter knows about one object
// at one local R-tree level: the nodes and their probability masses, and the
// bounding distributions S-SD or SS-SD asked for.
type levelBounds struct {
	nodes  []rtree.Entry // MBR and NodeID of each local-tree node
	masses []float64

	lbQ, ubQ distr.Distribution // w.r.t. the whole query (S-SD)
	qOK      bool
	perQ     [][2]distr.Distribution // (lb, ub) per query instance (SS-SD)
	perQOK   bool
}

// maxCoarseLevel bounds how many coarse levels are attempted before the
// exact scan; local trees have fanout 4, so level 3 already holds up to 64
// virtual instances.
const maxCoarseLevel = 3

// levelInfo returns the cached nodes and masses of object o at the given
// local tree level. This is the first place a dominance check touches the
// object's local R-tree. Every buffer — the bounds struct, the level-pointer
// table, masses and bound atoms — comes from the checker's scratch arenas.
func (c *Checker) levelInfo(o *objCache, level int) *levelBounds {
	if o.levels == nil {
		o.levels = c.scratch.levelPtrs.AllocZeroed(maxCoarseLevel + 1)
	}
	if o.levels[level] != nil {
		return o.levels[level]
	}
	tree := o.obj.LocalTree()
	nodes := tree.NodesAtLevel(level)
	lb := &c.scratch.levels.AllocZeroed(1)[0]
	lb.nodes = nodes
	lb.masses = c.scratch.floats.Alloc(len(nodes))
	scratch := c.scratch.ids[:0]
	for i, n := range nodes {
		scratch = tree.CollectIDs(n.ID, scratch[:0])
		var mass float64
		for _, id := range scratch {
			mass += o.obj.Prob(id)
		}
		lb.masses[i] = mass
	}
	c.scratch.ids = scratch[:0] // retain capacity growth
	o.levels[level] = lb
	return lb
}

// levelQ lazily builds the S-SD bounds at a level: one atom per (node,
// query instance).
func (c *Checker) levelQ(o *objCache, level int) *levelBounds {
	lb := c.levelInfo(o, level)
	if lb.qOK {
		return lb
	}
	lbPairs := c.scratch.pairs.Alloc(len(lb.nodes) * c.query.Len())
	ubPairs := c.scratch.pairs.Alloc(len(lb.nodes) * c.query.Len())
	w := 0
	for i, n := range lb.nodes {
		r := n.Rect
		for j := 0; j < c.query.Len(); j++ {
			q := c.query.Instance(j)
			p := c.query.Prob(j) * lb.masses[i]
			lbPairs[w] = distr.Pair{Dist: c.metric.MinDistRect(q, r), Prob: p}
			ubPairs[w] = distr.Pair{Dist: c.metric.MaxDistRect(q, r), Prob: p}
			w++
		}
	}
	c.Stats.InstanceComparisons += int64(2 * len(lb.nodes) * c.query.Len())
	lb.lbQ = ownNonNeg(lbPairs)
	lb.ubQ = ownNonNeg(ubPairs)
	lb.qOK = true
	return lb
}

// ownNonNeg wraps arena-built bound atoms as a distribution, dropping
// zero-probability atoms exactly as the previous MustFromPairs path did
// (zero-mass local-tree nodes contribute nothing).
func ownNonNeg(pairs []distr.Pair) distr.Distribution {
	w := 0
	for _, p := range pairs {
		if p.Prob > 0 {
			pairs[w] = p
			w++
		}
	}
	return distr.Own(pairs[:w])
}

// levelPerQ lazily builds the per-query-instance bounds at a level.
func (c *Checker) levelPerQ(o *objCache, level int) *levelBounds {
	lb := c.levelInfo(o, level)
	if lb.perQOK {
		return lb
	}
	lb.perQ = c.scratch.distPairs.Alloc(c.query.Len())
	for j := 0; j < c.query.Len(); j++ {
		q := c.query.Instance(j)
		lo := c.scratch.pairs.Alloc(len(lb.nodes))
		hi := c.scratch.pairs.Alloc(len(lb.nodes))
		for i, n := range lb.nodes {
			r := n.Rect
			lo[i] = distr.Pair{Dist: c.metric.MinDistRect(q, r), Prob: lb.masses[i]}
			hi[i] = distr.Pair{Dist: c.metric.MaxDistRect(q, r), Prob: lb.masses[i]}
		}
		lb.perQ[j] = [2]distr.Distribution{ownNonNeg(lo), ownNonNeg(hi)}
	}
	c.Stats.InstanceComparisons += int64(2 * len(lb.nodes) * c.query.Len())
	lb.perQOK = true
	return lb
}

// coarseLevels returns the sequence of levels worth attempting for a pair
// of objects: from 1 (children of the local roots) up to one short of the
// shallower tree's leaf level, capped at maxCoarseLevel. An object of at
// most fanout² instances has a local tree of height ≤ 2, whose only coarse
// level is its leaves — a handful of instances each, bounds nearly as long
// as the exact atoms they stand in for — so for such a pair the answer is 0
// by arithmetic and neither local tree is built.
func coarseLevels(u, v *objCache) int {
	const flat = uncertain.LocalTreeFanout * uncertain.LocalTreeFanout
	if u.obj.Len() <= flat || v.obj.Len() <= flat {
		return 0
	}
	hu := u.obj.LocalTree().Height()
	hv := v.obj.LocalTree().Height()
	h := hu
	if hv < h {
		h = hv
	}
	h-- // never run the "coarse" pass at the exact leaf level
	if h > maxCoarseLevel {
		h = maxCoarseLevel
	}
	return h
}

// levelDecideSSD attempts to decide S-SD(u, v, Q) at coarse local-tree
// levels. ok is false when every attempted level is inconclusive and the
// caller must fall through to the exact scan.
func (c *Checker) levelDecideSSD(cu, cv *objCache) (dec, ok bool) {
	maxLvl := coarseLevels(cu, cv)
	for lvl := 1; lvl <= maxLvl; lvl++ {
		bu := c.levelQ(cu, lvl)
		bv := c.levelQ(cv, lvl)
		// Pruning: LB(U) ≤st UB(V) is necessary for U_Q ≤st V_Q.
		if !distr.StochasticLE(bu.lbQ, bv.ubQ, c.eps, &c.Stats.InstanceComparisons) {
			return false, true
		}
		// Validation: UB(U) ≤st LB(V) with strictness somewhere.
		if distr.StochasticLE(bu.ubQ, bv.lbQ, c.eps, &c.Stats.InstanceComparisons) &&
			!distr.Equal(bu.ubQ, bv.lbQ, c.eps) {
			return true, true
		}
	}
	return false, false
}

// levelDecideSSSD attempts to decide SS-SD(u, v, Q) at coarse local-tree
// levels, applying the per-query-instance bounds.
func (c *Checker) levelDecideSSSD(cu, cv *objCache) (dec, ok bool) {
	maxLvl := coarseLevels(cu, cv)
	for lvl := 1; lvl <= maxLvl; lvl++ {
		bu := c.levelPerQ(cu, lvl)
		bv := c.levelPerQ(cv, lvl)
		valid := true
		strict := false
		for j := range bu.perQ {
			if !distr.StochasticLE(bu.perQ[j][0], bv.perQ[j][1], c.eps, &c.Stats.InstanceComparisons) {
				return false, true // pruning at instance j
			}
			if valid {
				if !distr.StochasticLE(bu.perQ[j][1], bv.perQ[j][0], c.eps, &c.Stats.InstanceComparisons) {
					valid = false
				} else if !distr.Equal(bu.perQ[j][1], bv.perQ[j][0], c.eps) {
					strict = true
				}
			}
		}
		if valid && strict {
			return true, true
		}
	}
	return false, false
}
