package core

import (
	"cmp"
	"slices"

	"spatialdom/internal/distr"
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
//  3. cover-based validation on MBRs (Theorem 4), with a strictness
//     witness;
//  7. cover validation on the summary (Checker.coverValidate): F-SD at the
//     hull instances, read off the per-query-instance extremes, with the
//     means' witness that U_Q ≠ V_Q — F-SD ⊂ P-SD; then the match witness
//     (matchValidate): Theorem 1's quantile match of the instances, in
//     order of summed distance, checked tuple by tuple against ⪯Q. Either
//     way the pair never sorts a run, writes a row or solves a transport;
//
// 4a. the isolation test (isolated): an instance of more than flowEps with
// no partner under ⪯Q fails Hall's condition, so the transport falls
// short — found on the summary's hull distances, in sum order;
//
//  4. the sweep: one pass per query instance over U_q and V_q sorted by
//     distance, which decides the SS-SD scan U_q ≤st V_q (cover-based
//     pruning: ¬SS-SD implies ¬P-SD) and, at hull instances, writes the
//     admissibility rows of Theorem 12 — abandoned the moment a scan fails;
//  5. the geometric in-hull exit: an instance of V inside the convex hull
//     of Q can only be matched by a co-located instance of U;
//  8. the exact instance transport over the rows rung 4 wrote, refused
//     without a solve when a positive-mass instance has no admissible pair
//     (what rung 4a finds first under StatPruning).
//
// Rungs 7 and 4a run before the sweep because the sweep is what they save;
// a "yes" rung commutes with the "no" rungs around it (Checker.Dominates).
// Rung 6 is S-SD's and SS-SD's only. The paper's level-by-level G⁻/G⁺
// networks over local R-tree nodes cost more than the sweep and solve they
// stood in front of at every object size measured (EXPERIMENTS.md, "P-SD
// level by level"), so FilterConfig.LevelByLevel does not reach this file.
//
// The transport is masses on two sides and a 0/1 matrix of admissible pairs
// between them, solved by flow.Transport. The matrix is bitset rows
// (flow.RowWords(nv) words per supply atom, whatever nv is) out of the
// checker's scratch, the solver keeps a dense flow matrix and its search
// state between solves, and nothing else is built: no vertices, no edge
// list.
//
// Rungs 4 and 7 are Sections 5.1.1 and 5.1.2 read off one object. u ⪯Q v is
// component-wise order in the space of distances to the hull query
// instances, so in the run sorted for hull instance q the instances of V
// that q puts out of u's reach are a prefix, which grows as u moves up its
// own run: one merge of the two runs clears that prefix from every row, a
// mask at a time, and no pair of instances is ever compared.

const flowEps = 1e-9

func (c *Checker) psd(su, sv *objCache) bool {
	su, sv = c.summary(su), c.summary(sv)
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	if c.mbrValidate(su, sv, true) || c.coverValidate(su, sv, false) || c.matchValidate(su, sv) {
		return true
	}
	if c.isolated(su, sv) {
		c.Stats.IsolationPrunes++
		return false
	}
	adm, strict, ok := c.sweep(su, sv)
	if !ok {
		return false
	}
	if c.cfg.Geometric && c.euclid && c.query.Dim() == 2 {
		if c.inHullExit(su.obj, sv.obj) {
			return false
		}
	}
	return c.psdSolve(su, sv, adm, strict)
}

// matchValidate is rung 7's second witness, P-SD's own: Theorem 1's quantile
// match of U and V (distr.Match's walk, on instances) along one linear
// extension of ⪯Q, the order of matchOrder. It says "yes" when every tuple
// has u ⪯Q v exactly, the tuples ship at least 1 − flowEps, and U_Q ≠ V_Q
// is witnessed: by a tuple of more than flowEps that some hull instance
// separates by more than eps, or by meansApart. Such a match is a flow over
// the rows rung 4 would write, so rung 8 would say "yes" too; a pair whose
// walk fails goes on to the sweep. It is gated and counted like
// coverValidate.
//
//nnc:hotpath
func (c *Checker) matchValidate(su, sv *objCache) bool {
	if !c.cfg.StatPruning {
		return false
	}
	h := len(c.hullIdx)
	// The first tuple pairs the two instances of least sum. Most walks that
	// fail, fail there, before either order is built.
	if le, _ := c.distLE(su.first, sv.first); !le {
		c.Stats.InstanceComparisons++
		return false
	}
	ou, ov := c.matchOrder(su), c.matchOrder(sv)
	pu, pv := su.obj.Probs(), sv.obj.Probs()
	i, j := 0, 0
	remU, remV := pu[ou[0]], pv[ov[0]]
	var shipped float64
	strict := false
	for tuples := int64(1); ; tuples++ {
		x := min(remU, remV)
		le, apart := c.distLE(su.hullD[int(ou[i])*h:][:h], sv.hullD[int(ov[j])*h:][:h])
		if !le {
			c.Stats.InstanceComparisons += tuples
			return false
		}
		strict = strict || apart && x > flowEps
		shipped += x
		// x is one of the two remainders, so at least one drops to zero.
		if remU -= x; remU <= 0 {
			if i++; i == len(ou) {
				c.Stats.InstanceComparisons += tuples
				break
			}
			remU = pu[ou[i]]
		}
		if remV -= x; remV <= 0 {
			if j++; j == len(ov) {
				c.Stats.InstanceComparisons += tuples
				break
			}
			remV = pv[ov[j]]
		}
	}
	if shipped < 1-flowEps || !strict && !c.meansApart(su, sv) {
		return false
	}
	c.Stats.CoverValidations++
	return true
}

// distLE compares two instances at the hull query instances: le when du ≤ dv
// exactly at every one, apart when some one separates them by more than eps.
func (c *Checker) distLE(du, dv []float64) (le, apart bool) {
	for t, d := range du {
		if d > dv[t] {
			return false, false
		}
		apart = apart || d < dv[t]-c.eps
	}
	return true, apart
}

// matchFirst is what the summary adds for P-SD's rungs 4a and 7, while the
// runs distr.Summarize has just filled are unsorted and in cache: oc.hullD,
// every instance's distances to the hull query instances, instance after
// instance; oc.sums, their sums; and oc.first, the distances of the
// positive-mass instance of least sum (the earliest, on a tie). Every
// object's sums are taken in the same order of the hull instances, and
// rounding is monotone, so u ⪯Q v exactly implies sum(u) ≤ sum(v).
//
//nnc:hotpath
func (c *Checker) matchFirst(oc *objCache) {
	m, runs, hull := oc.obj.Len(), oc.runs, c.hullIdx
	h := len(hull)
	sums, hullD := c.scratch.floats.Alloc(m), c.scratch.floats.Alloc(m*h)
	for i := range sums {
		d := hullD[i*h:][:h]
		var s float64
		for t, j := range hull {
			d[t] = runs[j*m+i].Dist
			s += d[t]
		}
		sums[i] = s
	}
	f := -1
	for i, p := range oc.obj.Probs() {
		if p > 0 && (f < 0 || sums[i] < sums[f]) {
			f = i
		}
	}
	oc.sums, oc.hullD, oc.first = sums, hullD, hullD[f*h:][:h]
}

// orderKey is one instance of an object and its summed distance to the hull
// query instances.
type orderKey struct {
	sum  float64
	inst int32
}

// matchOrder returns oc's positive-mass instances in order of their sums, a
// linear extension of ⪯Q (matchFirst), with ties in instance order, so that
// the first is oc.first's. It is built the first time rung 4a or a walk past
// its first tuple asks.
//
//nnc:hotpath
func (c *Checker) matchOrder(oc *objCache) []int32 {
	if oc.order != nil {
		return oc.order
	}
	sc := c.scratch
	order := sc.insts.Alloc(oc.obj.Len())
	n := 0
	for i, p := range oc.obj.Probs() {
		if p > 0 {
			order[n] = int32(i)
			n++
		}
	}
	order = order[:n]
	sums := oc.sums
	if n <= 24 {
		for i := 1; i < n; i++ {
			inst, k := order[i], i
			for ; k > 0 && sums[inst] < sums[order[k-1]]; k-- {
				order[k] = order[k-1]
			}
			order[k] = inst
		}
	} else {
		sc.orderKeys = growKeys(sc.orderKeys, n)
		for k, inst := range order {
			sc.orderKeys[k] = orderKey{sums[inst], inst}
		}
		slices.SortFunc(sc.orderKeys, func(a, b orderKey) int {
			return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.inst, b.inst))
		})
		for k, key := range sc.orderKeys {
			order[k] = key.inst
		}
	}
	oc.order = order
	return order
}

// isolated is rung 4a, Hall's condition on one instance: Theorem 12's
// transport can ship all the mass only if every instance of more than
// flowEps has a partner, an instance of positive mass on the other side
// that the rows of rung 4 admit with it. One instance without a partner
// refutes the pair, and the search for it reads only the summary
// (oc.hullD, oc.sums) and matchOrder, so it sorts no run.
//
// It takes V's instances in increasing sum and U's in decreasing, the ones
// with the fewest partners first, alternating, and stops at the first
// isolated one. A partner u of v has sum(u) ≤ (sum(v) + h·eps)·sumSlack(h),
// so v's partners are looked for in U's order from its start up to that
// bound, and u's in V's order from its end down to it. It is gated like
// rung 7 and adds the pairs it compares to InstanceComparisons.
//
//nnc:hotpath
func (c *Checker) isolated(su, sv *objCache) bool {
	if !c.cfg.StatPruning {
		return false
	}
	ou, ov := c.matchOrder(su), c.matchOrder(sv)
	pu, pv := su.obj.Probs(), sv.obj.Probs()
	h := len(c.hullIdx)
	heps, slack := float64(h)*c.eps, sumSlack(h)
	var tests int64
	for a, b := 0, len(ou)-1; a < len(ov) || b >= 0; a, b = a+1, b-1 {
		if a < len(ov) && pv[ov[a]] > flowEps {
			v := int(ov[a])
			dv, bound, found := sv.hullD[v*h:][:h], (sv.sums[v]+heps)*slack, false
			for k := 0; k < len(ou) && !found && su.sums[ou[k]] <= bound; k++ {
				tests++
				found = c.admits(su.hullD[int(ou[k])*h:][:h], dv)
			}
			if !found {
				c.Stats.InstanceComparisons += tests
				return true
			}
		}
		if b >= 0 && pu[ou[b]] > flowEps {
			u := int(ou[b])
			du, s, found := su.hullD[u*h:][:h], su.sums[u], false
			for k := len(ov) - 1; k >= 0 && !found && (sv.sums[ov[k]]+heps)*slack >= s; k-- {
				tests++
				found = c.admits(du, sv.hullD[int(ov[k])*h:][:h])
			}
			if !found {
				c.Stats.InstanceComparisons += tests
				return true
			}
		}
	}
	c.Stats.InstanceComparisons += tests
	return false
}

// admits is the sweep's pair test (sweepInstance) on two instances'
// distances to the hull query instances: the pair is forbidden when
// du > dv+eps at some hull instance.
func (c *Checker) admits(du, dv []float64) bool {
	for t, d := range du {
		if d > dv[t]+c.eps {
			return false
		}
	}
	return true
}

// sumSlack is the factor of rung 4a's bound on the sums of an instance's
// partners: if u is admitted with v over h hull instances, then
//
//	sum(u) ≤ (sum(v) + h·eps)·sumSlack(h)
//
// in floating point, as the rung computes both sides. Proof, with
// ε = 2⁻⁵³ and a, b the two instances' distances: admission is
// a_t ≤ fl(b_t + eps) ≤ (b_t + eps)(1+ε) at every t, and matchFirst sums
// both sides in the same order, so for these non-negative terms
// sum(u) ≤ (1+ε)^(h−1)·Σa_t and sum(v) ≥ (1−ε)^(h−1)·Σb_t. Hence
// sum(u) ≤ ((1+ε)/(1−ε))^h·(sum(v) + h·eps). The rung rounds h·eps, the
// addition and the product once each, down by at most a factor (1−ε)
// apiece, so the factor must be at least (1+ε)^h/(1−ε)^(h+3) ≈ 1 +
// (2h+3)ε; 1 + (4h+8)ε, exact in floating point, is.
func sumSlack(h int) float64 {
	return 1 + float64(h+2)*0x1p-51
}

// sortedRun returns U_q for query instance j as atoms sorted by distance,
// with the instance each atom belongs to. A sweep asks for the runs in query
// order and mostly stops after a few, so they are sorted as it reaches them:
// runs [0, oc.sorted) are.
func (c *Checker) sortedRun(oc *objCache, j int) ([]distr.Pair, []int32) {
	m := oc.obj.Len()
	if oc.runInst == nil {
		oc.runInst = c.scratch.insts.Alloc(len(oc.runs))
	}
	if oc.sorted <= j {
		lo, hi := oc.sorted*m, (j+1)*m
		c.scratch.runSorter.SortRuns(oc.runs[lo:hi], oc.runInst[lo:hi], oc.obj.Probs())
		oc.sorted = j + 1
	}
	return oc.runs[j*m : (j+1)*m], oc.runInst[j*m : (j+1)*m]
}

// sweepRows is what a sweep carries from one hull instance to the next: the
// admissible and the strict pairs so far, nu rows of w words over V's
// instances, and the two prefix masks of sweepInstance, a row wide each.
type sweepRows struct {
	w           int
	adm, strict []uint64
	out, notFar []uint64
}

// sweep is rung 4 and the row fill of rung 8 in one pass over the query
// instances: sweepInstance at each, on the two sorted runs. ok is false when
// a scan refutes P-SD; otherwise adm holds exactly the pairs with u ⪯Q v
// (within eps at every hull instance) and strict those of them some hull
// instance separates by more than eps, both out of the scratch's row
// buffer. The scan verdicts are used under StatPruning only; the rows are
// complete either way.
func (c *Checker) sweep(su, sv *objCache) (adm, strict []uint64, ok bool) {
	var r sweepRows
	for j, hull := range c.isHull {
		if !hull && !c.cfg.StatPruning {
			continue
		}
		if hull && r.adm == nil {
			r = c.scratch.newSweepRows(su.obj.Len(), sv.obj.Len())
		}
		us, ui := c.sortedRun(su, j)
		vs, vi := c.sortedRun(sv, j)
		if !c.sweepInstance(us, vs, ui, vi, c.eps, c.cfg.StatPruning, hull, &r) {
			c.Stats.StatPrunes++
			c.Stats.ScanPrunes++
			return nil, nil, false
		}
	}
	for i := range r.adm {
		r.strict[i] &= r.adm[i]
	}
	return r.adm, r.strict, true
}

// sweepInstance is one merge of U_q against V_q, both sorted by distance to
// the query instance q, walking U's run and three cursors into V's. It
// reports whether the scan holds within tol (true when scan is off).
//
// The scan: U_q ≤st V_q fails iff at some distance λ less mass of U than of
// V lies within λ, and it is enough to ask just before each atom of U and
// after the last — with the mass of V strictly nearer than that atom —
// because between two such points U's side does not move and V's only
// grows. The running sums are distr.StochasticLE's, term for term, and so is
// the verdict.
//
// The rows (hull instances): with du and dv the distances of u and v to q,
// the instance forbids the pair when du > dv+eps and witnesses strictness
// when du < dv−eps. For a given u the forbidden instances of V are a prefix
// of V's run, the ones not strictly farther a longer prefix, and both only
// grow as u moves up U's run: they are kept as masks over V's instances, and
// each row takes one and-not and one or per word.
func (c *Checker) sweepInstance(us, vs []distr.Pair, ui, vi []int32, tol float64, scan, hull bool, r *sweepRows) bool {
	var massU, massV float64
	near, a, b := 0, 0, 0 // cursors into vs: strictly nearer, forbidden, not strictly farther
	if hull {
		clear(r.out)
		clear(r.notFar)
	}
	for k, x := range us {
		if scan {
			for ; near < len(vs) && vs[near].Dist < x.Dist; near++ {
				massV += vs[near].Prob
			}
			if massU < massV-tol {
				c.Stats.InstanceComparisons += int64(k + max(near, b))
				return false
			}
			massU += x.Prob
		}
		if !hull {
			continue
		}
		for ; a < len(vs) && x.Dist > vs[a].Dist+c.eps; a++ {
			r.out[vi[a]>>6] |= 1 << (vi[a] & 63)
		}
		for ; b < len(vs) && !(x.Dist < vs[b].Dist-c.eps); b++ {
			r.notFar[vi[b]>>6] |= 1 << (vi[b] & 63)
		}
		lo := int(ui[k]) * r.w
		row, srow := r.adm[lo:lo+r.w], r.strict[lo:lo+r.w]
		for t := range row {
			row[t] &^= r.out[t]
			srow[t] |= ^r.notFar[t]
		}
	}
	if !scan {
		c.Stats.InstanceComparisons += int64(len(us) + b)
		return true
	}
	c.Stats.InstanceComparisons += int64(len(us) + len(vs))
	for ; near < len(vs); near++ {
		massV += vs[near].Prob
	}
	return !(massU < massV-tol)
}

// inHullExit reports whether some positive-mass instance of V lies inside
// the convex hull of the query without a co-located instance of U — in
// which case no match can cover that instance and P-SD fails. (A point in
// CH(Q) cannot be ⪯Q-dominated by any distinct point: the closed halfspace
// bounded by their bisector that contains all of Q would have to contain
// the point itself.) The hull is the checker's hull instances, vertices in
// order, which are views into the query's coordinate slab.
func (c *Checker) inHullExit(u, v *uncertain.Object) bool {
	for i := 0; i < v.Len(); i++ {
		vi := v.Instance(i)
		if v.Prob(i) <= flowEps || !geom.PointInHull2D(vi, c.hullPts) {
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

// psdSolve is rung 8: Theorem 12's transport over the rows the sweep wrote.
// A positive-mass instance with an empty row or column refutes the pair
// without a solve (flow.Transport.Isolated); under StatPruning rung 4a has
// already refuted every such pair. Flow matrix and solver state are the
// checker's scratch, so repeat solves do not allocate.
func (c *Checker) psdSolve(su, sv *objCache, adm, strict []uint64) bool {
	t := &c.scratch.transport
	pu, pv := su.obj.Probs(), sv.obj.Probs()
	if t.Isolated(pu, pv, adm, flowEps) {
		return false
	}
	c.Stats.FlowSolves++
	if t.Solve(pu, pv, adm) < 1-flowEps {
		return false
	}
	// A match exists. The side condition U_Q ≠ V_Q remains: if any matched
	// tuple is strictly closer at some hull instance, the CDFs differ and
	// the condition holds for free; otherwise ask the means' witness, and
	// failing that compare the distributions.
	// Which of the maximal assignments the solver found does not matter: a
	// full match with a strict tuple makes some U_q, hence the mixture U_Q,
	// differ from V's, so distr.Equal would say "different" too.
	if t.ShipsOver(strict, flowEps) {
		return true
	}
	return c.unequal(su, sv)
}
