package core

import (
	"cmp"
	"slices"

	"spatialdom/internal/distr"
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
//  7. cover validation on the summary (Checker.coverValidate): F-SD at the
//     hull instances, read off the per-query-instance extremes, with the
//     means' witness that U_Q ≠ V_Q — F-SD ⊂ P-SD; then the match witness
//     (matchValidate): Theorem 1's quantile match of the instances, in
//     order of summed distance, checked tuple by tuple against ⪯Q. Either
//     way the pair never sorts a run, writes a row or solves a transport;
//
// 4a. the isolation test (isolated): an instance of positive mass with no
// partner under ⪯Q fails Hall's condition, so the transport leaves at
// least its mass unshipped — found on the summary's hull distances, in sum
// order;
//
//  4. the sweep: one pass per query instance over U_q and V_q sorted by
//     distance, which decides the SS-SD scan U_q ≤st V_q (cover-based
//     pruning: ¬SS-SD implies ¬P-SD) and, at hull instances, writes the
//     admissibility rows of Theorem 12 — abandoned the moment a scan fails;
//  8. the exact instance transport over the rows rung 4 wrote: refused
//     without a solve when a positive-mass instance has no admissible
//     partner (what rung 4a finds first), and otherwise when it leaves
//     more than uncertain.MassBound of the instances unshipped.
//
// Rungs 7 and 4a run before the sweep because the sweep is what they save;
// a "yes" rung commutes with the "no" rungs around it (Checker.Dominates).
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

func (c *Checker) psd(su, sv *objCache) bool {
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	if c.coverValidate(su, sv, false) || c.matchValidate(su, sv) {
		return true
	}
	if c.isolated(su, sv) {
		c.Stats.IsolationPrunes++
		return false
	}
	adm, ok := c.sweep(su, sv)
	if !ok {
		return false
	}
	return c.psdSolve(su, sv, adm)
}

// matchValidate is rung 7's second witness, P-SD's own: Theorem 1's quantile
// match of U and V (distr.Match's walk, on instances) along one linear
// extension of ⪯Q, the order of matchOrder. It says "yes" when every tuple
// has u ⪯Q v exactly, the walk ends on the last instance of both sides —
// so every instance of positive mass is in an admitted tuple — with at most
// half of uncertain.MassBound of the instances left over, and U_Q ≠ V_Q is
// witnessed by meansApart. Such a match is a flow over the rows rung 4
// would write, which the transport's bound admits with the other half to
// spare for its own rounding, so rung 8 would say "yes" too; a pair whose
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
	if !c.admits(su.first, sv.first) {
		c.Stats.InstanceComparisons++
		return false
	}
	ou, ov := c.matchOrder(su), c.matchOrder(sv)
	pu, pv := su.obj.Probs(), sv.obj.Probs()
	lastU, lastV := len(ou)-1, len(ov)-1
	half := uncertain.MassBound(len(pu)+len(pv)) / 2
	i, j := 0, 0
	remU, remV := pu[ou[0]], pv[ov[0]]
	for tuples := int64(1); ; tuples++ {
		if !c.admits(su.hullD[int(ou[i])*h:][:h], sv.hullD[int(ov[j])*h:][:h]) {
			c.Stats.InstanceComparisons += tuples
			return false
		}
		// x is one of the two remainders, so at least one drops to zero.
		x := min(remU, remV)
		remU, remV = remU-x, remV-x
		if remU <= 0 && i == lastU || remV <= 0 && j == lastV {
			c.Stats.InstanceComparisons += tuples
			if i != lastU || j != lastV || max(remU, remV) > half || !c.meansApart(su, sv) {
				return false
			}
			c.Stats.CoverValidations++
			return true
		}
		if remU <= 0 {
			i++
			remU = pu[ou[i]]
		}
		if remV <= 0 {
			j++
			remV = pv[ov[j]]
		}
	}
}

// matchFirst is what the summary adds for P-SD's rungs 4a and 7, while the
// runs distr.Summarize has just filled are unsorted and in cache: oc.hullD,
// every instance's distances to the hull query instances, instance after
// instance; oc.sums, their sums; and oc.first, the distances of the
// positive-mass instance of least sum (the earliest, on a tie). Every
// object's sums are taken in the same order of the hull instances, and a
// rounded sum is monotone in each term, so u ⪯Q v, compared exactly,
// implies sum(u) ≤ sum(v) as computed.
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
// transport can ship all the mass only if every instance of positive mass
// has a partner, an instance of positive mass on the other side that the
// rows of rung 4 admit with it. One instance without a partner refutes the
// pair — the transport leaves at least its mass unshipped, which its
// Isolated test refuses — and the search for it reads only the summary
// (oc.hullD, oc.sums) and matchOrder, so it sorts no run.
//
// It takes V's instances in increasing sum and U's in decreasing, the ones
// with the fewest partners first, alternating, and stops at the first
// isolated one. A partner u of v has sum(u) ≤ sum(v) (matchFirst), so v's
// partners are looked for in U's order from its start up to sum(v), and
// u's in V's order from its end down to sum(u). It is gated like rung 7 and
// adds the pairs it compares to InstanceComparisons.
//
//nnc:hotpath
func (c *Checker) isolated(su, sv *objCache) bool {
	if !c.cfg.StatPruning {
		return false
	}
	ou, ov := c.matchOrder(su), c.matchOrder(sv)
	h := len(c.hullIdx)
	var tests int64
	for a, b := 0, len(ou)-1; a < len(ov) || b >= 0; a, b = a+1, b-1 {
		if a < len(ov) {
			v := int(ov[a])
			dv, bound, found := sv.hullD[v*h:][:h], sv.sums[v], false
			for k := 0; k < len(ou) && !found && su.sums[ou[k]] <= bound; k++ {
				tests++
				found = c.admits(su.hullD[int(ou[k])*h:][:h], dv)
			}
			if !found {
				c.Stats.InstanceComparisons += tests
				return true
			}
		}
		if b >= 0 {
			u := int(ou[b])
			du, s, found := su.hullD[u*h:][:h], su.sums[u], false
			for k := len(ov) - 1; k >= 0 && !found && sv.sums[ov[k]] >= s; k-- {
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
// distances to the hull query instances: u ⪯Q v, du ≤ dv at every one.
func (c *Checker) admits(du, dv []float64) bool {
	for t, d := range du {
		if d > dv[t] {
			return false
		}
	}
	return true
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
// admissible pairs so far, nu rows of w words over V's instances, and
// sweepInstance's forbidden-prefix mask, a row wide.
type sweepRows struct {
	w        int
	adm, out []uint64
}

// sweep is rung 4 and the row fill of rung 8 in one pass over the query
// instances: sweepInstance at each, on the two sorted runs. ok is false when
// a scan refutes P-SD; otherwise adm, out of the scratch's row buffer,
// holds exactly the pairs with u ⪯Q v. The scan verdicts are used under
// StatPruning only; the rows are complete either way.
func (c *Checker) sweep(su, sv *objCache) (adm []uint64, ok bool) {
	var r sweepRows
	tol := scanBound(su, sv)
	for j, hull := range c.isHull {
		if !hull && !c.cfg.StatPruning {
			continue
		}
		if hull && r.adm == nil {
			r = c.scratch.newSweepRows(su.obj.Len(), sv.obj.Len())
		}
		us, ui := c.sortedRun(su, j)
		vs, vi := c.sortedRun(sv, j)
		if !c.sweepInstance(us, vs, ui, vi, tol, c.cfg.StatPruning, hull, &r) {
			c.Stats.StatPrunes++
			c.Stats.ScanPrunes++
			return nil, false
		}
	}
	return r.adm, true
}

// sweepInstance is one merge of U_q against V_q, both sorted by distance to
// the query instance q, walking U's run and two cursors into V's. It
// reports whether the scan holds within tol (true when scan is off).
//
// The scan: U_q ≤st V_q fails iff at some distance λ less mass of U than of
// V lies within λ, and it is enough to ask just before each atom of U and
// after the last — with the mass of V strictly nearer than that atom —
// because between two such points U's side does not move and V's only
// grows. The masses compare under tol; the rest of distr.StochasticLE's
// rule — no positive mass of V nearer than all of U's, none of U beyond all
// of V's — is the per-query-instance statistics' min and max, which every
// caller has compared first (rung 2 under StatPruning, or scansHold).
//
// The rows (hull instances): with du and dv the distances of u and v to q,
// the instance forbids the pair when du > dv. For a given u the forbidden
// instances of V are a prefix of V's run, which only grows as u moves up
// U's run: it is kept as a mask over V's instances, and each row takes one
// and-not per word.
func (c *Checker) sweepInstance(us, vs []distr.Pair, ui, vi []int32, tol float64, scan, hull bool, r *sweepRows) bool {
	var massU, massV float64
	near, a := 0, 0 // cursors into vs: strictly nearer, forbidden
	if hull {
		clear(r.out)
	}
	for k, x := range us {
		if scan {
			for ; near < len(vs) && vs[near].Dist < x.Dist; near++ {
				massV += vs[near].Prob
			}
			if massU < massV-tol {
				c.Stats.InstanceComparisons += int64(k + max(near, a))
				return false
			}
			massU += x.Prob
		}
		if !hull {
			continue
		}
		for ; a < len(vs) && x.Dist > vs[a].Dist; a++ {
			r.out[vi[a]>>6] |= 1 << (vi[a] & 63)
		}
		lo := int(ui[k]) * r.w
		row := r.adm[lo : lo+r.w]
		for t := range row {
			row[t] &^= r.out[t]
		}
	}
	if !scan {
		c.Stats.InstanceComparisons += int64(len(us) + a)
		return true
	}
	c.Stats.InstanceComparisons += int64(len(us) + len(vs))
	for ; near < len(vs); near++ {
		massV += vs[near].Prob
	}
	return !(massU < massV-tol)
}

// psdSolve is rung 8: Theorem 12's transport over the rows the sweep wrote.
// A positive-mass instance with no admissible partner refutes the pair
// without a solve (flow.Transport.Isolated; under StatPruning rung 4a has
// already refuted every such pair), and so does a solve that leaves more
// than uncertain.MassBound of the instances unshipped. The side condition
// U_Q ≠ V_Q remains for a pair that ships (unequal). Flow matrix and solver
// state are the checker's scratch, so repeat solves do not allocate.
func (c *Checker) psdSolve(su, sv *objCache, adm []uint64) bool {
	t := &c.scratch.transport
	pu, pv := su.obj.Probs(), sv.obj.Probs()
	if t.Isolated(pu, pv, adm) {
		return false
	}
	c.Stats.FlowSolves++
	t.Solve(pu, pv, adm)
	if t.Unshipped() > uncertain.MassBound(len(pu)+len(pv)) {
		return false
	}
	return c.unequal(su, sv)
}
