package core

import (
	"cmp"
	"slices"

	"spatialdom/internal/distr"
)

// This file implements the Peer-SD check (Section 5.1.2). Theorem 12
// reduces P-SD(U,V,Q) to a bipartite transport: the instances of U supply
// their masses, the instances of V demand theirs, u may ship to v whenever
// u ⪯Q v, and P-SD holds iff the whole mass can be shipped (and U_Q ≠
// V_Q). The masses are the integers c(p) of distr's rule, each side scaled
// to the common total T_U·T_V: u supplies c(p_u)·T_V and v demands
// c(p_v)·T_U, so shipping everything is exact.
//
// psd runs the verdict ladder of Checker.Dominates from rung 2 on (rung 1,
// the global statistics, is answered by the caller):
//
//  2. per-query-instance statistics: P-SD ⊂ SS-SD, and min/mean/max of
//     every U_q are necessary for the SS-SD scans of rung 4;
//  7. the match witness (matchValidate): Theorem 1's quantile match of
//     the instances, in order of summed distance, checked tuple by tuple
//     against ⪯Q, with a tuple strictly nearer at a query instance of
//     positive mass as the witness that U_Q ≠ V_Q. A pair it validates
//     never sorts a run, writes a row or solves a transport;
//
// 4a. the isolation test (isolated): an instance of positive mass with no
// partner under ⪯Q fails Hall's condition, so the transport leaves at
// least its mass unshipped — found on the summary's distances, in sum
// order;
//
//  4. the sweep: one pass per query instance over U_q and V_q sorted by
//     distance, which decides the SS-SD scan U_q ≤st V_q (cover-based
//     pruning: ¬SS-SD implies ¬P-SD) and writes the admissibility rows of
//     Theorem 12 — abandoned the moment a scan fails;
//  8. the exact instance transport over the rows rung 4 wrote: refused
//     without a solve when a positive-mass instance has no admissible
//     partner (what rung 4a finds first), and otherwise when it leaves any
//     mass unshipped.
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
// component-wise order in the space of distances to the query instances —
// to every one: Section 5.1.2's reduction to the query's convex hull holds
// in real arithmetic, not in the float distances every rung compares, where
// an instance inside the hull can order two distances the other way by an
// ulp (DESIGN §7). So in the run sorted for query instance q the instances
// of V that q puts out of u's reach are a prefix, which grows as u moves up
// its own run: one merge of the two runs clears that prefix from every row,
// a mask at a time, and no pair of instances is ever compared.

func (c *Checker) psd(su, sv *objCache) bool {
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	if c.matchValidate(su, sv) {
		return true
	}
	if c.isolated(su, sv) {
		c.Stats.IsolationPrunes++
		return false
	}
	adm, ok := c.sweep(su, sv, c.cfg.StatPruning, true)
	if !ok {
		return false
	}
	return c.psdSolve(su, sv, adm)
}

// matchValidate is rung 7, P-SD's match witness: Theorem 1's quantile
// match of U and V (walked over instances, not distances) along one linear
// extension of ⪯Q, the order of matchOrder, on the transport's scaled
// masses. It says "yes" when every tuple has u ⪯Q v exactly — the two sides'
// equal totals make the walk end on the last instance of both, so every
// instance of positive mass is in an admitted tuple — and one tuple is
// strictly nearer at a query instance of positive mass: at that instance
// the match couples U_q below V_q with a strict gap of positive mass, so
// U_q ≠ V_q and U_Q ≠ V_Q.
// Such a match is a flow over the rows rung 4 would write, so rung 8 would
// say "yes" too; a pair whose walk fails goes on to the sweep. It is gated
// by StatPruning and counted in CoverValidations.
//
//nnc:hotpath
func (c *Checker) matchValidate(su, sv *objCache) bool {
	if !c.cfg.StatPruning {
		return false
	}
	h := len(c.posFirstIdx)
	// The first tuple pairs the two instances of least sum. Most walks that
	// fail, fail there, before either order is built.
	if !c.admits(su.first, sv.first) {
		c.Stats.InstanceComparisons++
		return false
	}
	ou, ov := c.matchOrder(su), c.matchOrder(sv)
	lastU, lastV := len(ou)-1, len(ov)-1
	i, j, strict := 0, 0, false
	remU, remV := distr.Mul(su.mass[ou[0]], sv.total), distr.Mul(sv.mass[ov[0]], su.total)
	for tuples := int64(1); ; tuples++ {
		du, dv := su.posFirstD[int(ou[i])*h:][:h], sv.posFirstD[int(ov[j])*h:][:h]
		if !c.admits(du, dv) {
			c.Stats.InstanceComparisons += tuples
			return false
		}
		for t := 0; t < c.pos && !strict; t++ {
			strict = du[t] < dv[t]
		}
		// x is one of the two remainders, so at least one drops to zero.
		x := remU.Min(remV)
		remU, remV = remU.Sub(x), remV.Sub(x)
		if i == lastU && remU.IsZero() || j == lastV && remV.IsZero() {
			c.Stats.InstanceComparisons += tuples
			if !strict {
				return false
			}
			c.Stats.CoverValidations++
			return true
		}
		if remU.IsZero() {
			i++
			remU = distr.Mul(su.mass[ou[i]], sv.total)
		}
		if remV.IsZero() {
			j++
			remV = distr.Mul(sv.mass[ov[j]], su.total)
		}
	}
}

// matchFirst is what the summary adds for P-SD's rungs 4a and 7, while the
// runs distr.Summarize has just filled are unsorted and in cache:
// oc.posFirstD, every instance's distances to the query instances in
// rectPred's order, instance after instance; oc.sums, their sums; and
// oc.first, the distances of the positive-mass instance of least sum (the
// earliest, on a tie). Every object's sums are taken in the same order of
// the query instances, and a rounded sum is monotone in each term, so
// u ⪯Q v, compared exactly, implies sum(u) ≤ sum(v) as computed.
//
//nnc:hotpath
func (c *Checker) matchFirst(oc *objCache) {
	m, runs, idx := oc.obj.Len(), oc.runs, c.posFirstIdx
	h := len(idx)
	sums, dists := c.scratch.floats.Alloc(m), c.scratch.floats.Alloc(m*h)
	for i := range sums {
		d := dists[i*h:][:h]
		var s float64
		for t, j := range idx {
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
	oc.sums, oc.posFirstD, oc.first = sums, dists, dists[f*h:][:h]
}

// orderKey is one instance of an object and its summed distance to the
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
		sc.orderKeys = grow(sc.orderKeys, n)
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
// (oc.posFirstD, oc.sums) and matchOrder, so it sorts no run.
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
	h := len(c.posFirstIdx)
	var tests int64
	for a, b := 0, len(ou)-1; a < len(ov) || b >= 0; a, b = a+1, b-1 {
		if a < len(ov) {
			v := int(ov[a])
			dv, bound, found := sv.posFirstD[v*h:][:h], sv.sums[v], false
			for k := 0; k < len(ou) && !found && su.sums[ou[k]] <= bound; k++ {
				tests++
				found = c.admits(su.posFirstD[int(ou[k])*h:][:h], dv)
			}
			if !found {
				c.Stats.InstanceComparisons += tests
				return true
			}
		}
		if b >= 0 {
			u := int(ou[b])
			du, s, found := su.posFirstD[u*h:][:h], su.sums[u], false
			for k := len(ov) - 1; k >= 0 && !found && sv.sums[ov[k]] >= s; k-- {
				tests++
				found = c.admits(du, sv.posFirstD[int(ov[k])*h:][:h])
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

// admits is the rows' pair test (fillRows) on two instances' distances to
// the query instances: u ⪯Q v, du ≤ dv at every one.
func (c *Checker) admits(du, dv []float64) bool {
	for t, d := range du {
		if d > dv[t] {
			return false
		}
	}
	return true
}

// sortedRun returns U_q for query instance j as atoms sorted by distance,
// each naming its instance. A sweep asks for the runs in query order and
// mostly stops after a few, so they are sorted in place as it reaches
// them: runs [0, oc.sorted) are.
func (c *Checker) sortedRun(oc *objCache, j int) []distr.Atom {
	m := oc.obj.Len()
	for ; oc.sorted <= j; oc.sorted++ {
		distr.SortAtoms(oc.runs[oc.sorted*m : (oc.sorted+1)*m])
	}
	return oc.runs[j*m : (j+1)*m]
}

// sweepRows is what a sweep carries from one query instance to the next: the
// admissible pairs so far, nu rows of w words over V's instances, and
// fillRows' forbidden-prefix mask, a row wide.
type sweepRows struct {
	w        int
	adm, out []uint64
}

// sweep is the pass over the query instances that SS-SD's exact test and
// P-SD's rungs 4 and 8 share, on the two sorted runs of each: when scan,
// the scan U_q ≤st V_q; when rows, the row fill. ok is false when a scan
// fails; otherwise adm, out of the scratch's row buffer, holds exactly the
// pairs with u ⪯Q v (nil without rows). A failed scan of P-SD's is counted
// as a scan prune.
func (c *Checker) sweep(su, sv *objCache, scan, rows bool) (adm []uint64, ok bool) {
	var r sweepRows
	if rows {
		r = c.scratch.newSweepRows(su.obj.Len(), sv.obj.Len())
	}
	n := runNorm(su, sv)
	for j := range c.query.Len() {
		us, vs := c.sortedRun(su, j), c.sortedRun(sv, j)
		if scan {
			le, _, k := n.StochasticLE(us, vs, distr.Mass{}, distr.Mass{}, false)
			c.Stats.InstanceComparisons += int64(k)
			if !le {
				if rows {
					c.Stats.StatPrunes++
					c.Stats.ScanPrunes++
				}
				return nil, false
			}
		}
		if rows {
			c.Stats.InstanceComparisons += int64(fillRows(us, vs, &r))
		}
	}
	return r.adm, true
}

// fillRows clears from the rows the pairs one query instance q forbids, u
// farther from q than v, and returns the atoms it read. For a given u the
// forbidden instances of V are a prefix of V's run, which only grows as u
// moves up U's run: it is kept as a mask over V's instances, and each row
// takes one and-not per word.
func fillRows(us, vs []distr.Atom, r *sweepRows) int {
	clear(r.out)
	a := 0
	for _, x := range us {
		for ; a < len(vs) && x.Dist > vs[a].Dist; a++ {
			v := vs[a].U
			r.out[v>>6] |= 1 << (v & 63)
		}
		row := r.adm[int(x.U)*r.w:][:r.w]
		for t := range row {
			row[t] &^= r.out[t]
		}
	}
	return len(us) + a
}

// psdSolve is rung 8: Theorem 12's transport over the rows the sweep wrote.
// A positive-mass instance with no admissible partner refutes the pair
// without a solve (flow.Transport.Isolated; under StatPruning rung 4a has
// already refuted every such pair), and so does a solve that leaves any
// mass unshipped. U_Q ≠ V_Q is a strict run (strictRun) under
// StatPruning, where the sweep scanned every instance; without it, the
// scan of U_Q (unequal). Flow matrix and solver state are the checker's
// scratch, so repeat solves do not allocate.
func (c *Checker) psdSolve(su, sv *objCache, adm []uint64) bool {
	t := &c.scratch.transport
	if t.Isolated(su.mass, sv.mass, adm) {
		return false
	}
	c.Stats.FlowSolves++
	if !t.Solve(su.mass, sv.total, sv.mass, su.total, adm) {
		return false
	}
	if c.cfg.StatPruning {
		return c.strictRun(su, sv)
	}
	return c.unequal(su, sv)
}
