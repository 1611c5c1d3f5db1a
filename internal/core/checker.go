package core

import (
	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Checker decides spatial dominance between objects for one fixed query,
// caching per-object distance distributions, statistics and sorted runs
// across checks. A Checker is not safe for concurrent use.
//
// Every cache a checker builds lives in its CheckScratch arena, so a warm
// check — one whose pair of objects has been seen before — performs zero
// heap allocations, and a pooled scratch makes whole steady-state searches
// allocation-free.
//
// The engine hands the checker each object's cache itself (handle), built
// once when the object is keyed. The exported methods take objects and find
// their caches by object ID in one map, so callers of those must give
// distinct IDs to distinct objects.
type Checker struct {
	rectPred // op, metric, euclid, hull (the points of hullIdx), qMBR

	query   *uncertain.Object
	cfg     FilterConfig
	statCut bool   // StatPruning is on and the operator implies S-SD
	hullIdx []int  // indices into query instances used by point-level checks
	isHull  []bool // per query instance: whether hullIdx names it

	// The bucket edges of S-SD's mass rung (massOrder), fixed by the first
	// object summarised when bkPending; bk.N = 0 while there are none.
	bk        distr.Buckets
	bkPending bool

	// Stats accumulates work counters; reset or read between searches.
	Stats Stats

	scratch *CheckScratch
}

// NewChecker returns a dominance checker for the given query, operator, and
// filter configuration, under the Euclidean metric.
func NewChecker(query *uncertain.Object, op Operator, cfg FilterConfig) *Checker {
	return NewCheckerMetric(query, op, cfg, geom.Euclidean)
}

// NewCheckerMetric is NewChecker under an arbitrary metric. Non-Euclidean
// metrics disable the convex-hull reduction (its bisector argument is
// L2-specific) but keep every other filter; verdicts are metric-exact.
//
// The checker owns a private CheckScratch; searches that run many checkers
// should pool scratches and use CheckScratch.Checker instead, which is what
// the engine does.
func NewCheckerMetric(query *uncertain.Object, op Operator, cfg FilterConfig, m geom.Metric) *Checker {
	return new(CheckScratch).Checker(query, op, cfg, m)
}

// Metric returns the metric the checker evaluates distances under.
func (c *Checker) Metric() geom.Metric { return c.metric }

// Operator returns the operator the checker decides.
func (c *Checker) Operator() Operator { return c.op }

// Dominates reports whether SD(u, v, Q) holds under the checker's operator.
//
// Verdict order. Every operator climbs the same ladder, cheapest rung
// first, and the first rung that can answer does:
//
//  1. global statistics: min/mean/max of U_Q against V_Q (three floats);
//     1a. S-SD's mass rung (massOrder): U_Q ≤st V_Q read off the two
//     objects' bucket summaries, then off their atoms in the buckets the
//     summaries leave open, with meansApart as the witness of U_Q ≠ V_Q —
//     U_Q is built only for an object whose open atoms it needs twice;
//  2. per-query-instance statistics: the same three of each U_q (SS-SD, P-SD);
//  4. the sweep of the sorted runs: per-query-instance stochastic scans as
//     cover-based pruning, and the admissibility rows of rung 8 (P-SD),
//     which P-SD's rung 4a precedes: an instance of positive mass without
//     a partner under ⪯Q refutes off the summary (isolated);
//  7. P-SD's match witness (matchValidate): Theorem 1's match, walked
//     over instances in order of summed distance, with meansApart as the
//     witness of U_Q ≠ V_Q;
//  8. the exact test: the sorted-atom scan, or the Theorem 12 max-flow.
//
// Missing numbers are deleted rungs; the documents cite the others by
// number. Cover validation on MBRs (Theorem 4) is the band's entry test,
// asked before an object is read (engine.go): F-SD between member and
// rectangle for the cover chain, and under S-SD also U_Q ≤st N_r, the
// rectangle's near distribution, whose proof ends in this ladder's
// rungs 1 and 8 (band's comment).
//
// Rung 1a answers both ways, but only where rung 8's scan answers the same
// (band's comment has the proof), so it changes no verdict either. Rungs
// 1, 2, 4 and 4a can only answer "no", rung 7 only "yes", and each only
// where rung 8 would, so their order never changes a verdict, only what it
// costs. Rungs 1 and 2 are necessary for the scans of rungs 4 and 8
// (Theorem 11: X ≤st Y implies the statistics are ordered), so a pair they
// reject is one a scan would have rejected, later and dearer. Rung 4a
// answers only what rung 8 would: mass without a partner cannot ship, so
// the transport falls short. Rung 7 is where P-SD's own rungs end and the
// work it saves begins: P-SD reads it before rung 4a and its sweep. Each
// rung is gated by the FilterConfig flag it always was, rungs 7 and 4a by
// StatPruning.
//
// Every rung compares by one rule (distr's package comment): distances
// exactly, accumulated mass under uncertain.MassBound of the atoms summed,
// a single atom's mass exactly. Rung 7 takes only verdicts rung 8 would
// take. (i) The witness meansApart is a gap distr.Equal cannot leave
// (distr.MeanBound). (ii) P-SD's match compares the summary's distances
// exactly, so each of its tuples is a pair the rows admit, and it visits
// every positive-mass instance and leaves at most half the bound unshipped
// (matchValidate).
func (c *Checker) Dominates(u, v *uncertain.Object) bool {
	return c.sd(c.cacheOf(u), c.cacheOf(v))
}

// sd is Dominates on two caches, the way a search's tie batch asks.
//
// Every verdict keeps the key order: a dominator's min(U_Q) is no larger
// than the dominated object's, compared exactly. Algorithm 1's heap, its
// tie batch and the answer shield rely on it (engine.go, shield.go). Rung 1
// asks it, and the scans of S-SD and SS-SD imply it; but P-SD's rows,
// F-SD's hull instances and F+SD's per-dimension sums imply it in real
// arithmetic only — the minimum may lie at a query instance off the hull,
// or round an ulp the other way — so without rung 1 it is asked on its
// own. The search's band asks decide directly: its members were popped
// first, in key order.
//
//nnc:hotpath
func (c *Checker) sd(su, sv *objCache) bool {
	c.Stats.DominanceChecks++
	su, sv = c.summary(su), c.summary(sv)
	if c.statCut {
		if !su.stat.LE(sv.stat, len(su.runs)+len(sv.runs)) {
			c.Stats.StatPrunes++
			return false
		}
	} else if su.stat.Min > sv.stat.Min {
		return false
	}
	return c.decide(su, sv)
}

// decide is sd past rung 1, which the band scan answers from its own
// slabs (engine.go). Both askers hand it summarised caches.
func (c *Checker) decide(su, sv *objCache) bool {
	switch c.op {
	case SSD:
		return c.ssd(su, sv)
	case SSSD:
		return c.sssd(su, sv)
	case PSD:
		return c.psd(su, sv)
	case FSD:
		return c.fsd(su, sv)
	case FPlusSD:
		return c.fplussd(su, sv)
	default:
		panic("core: unknown operator")
	}
}

// --- per-object cache --------------------------------------------------------

// objCache is what a checker knows about one object under its query: the
// object, its query summary and what later rungs build from it. It is the
// handle the engine carries for an examined object, from keying to the
// band; the exported methods reach it by ID (cacheOf).
type objCache struct {
	obj *uncertain.Object

	// The query summary (summary): one pass over the |Q|·m instance pairs.
	sumOK    bool
	stat     distr.Stat   // of U_Q; stat.Min is the object's heap key
	perQStat []distr.Stat // of U_q per query instance
	runs     []distr.Pair // |Q| runs of m atoms, one U_q each
	sorted   int          // runs [0, sorted) went through sortedRun
	runInst  []int32      // the instance of each atom of those runs
	distQOK  bool
	gathered bool               // massOrder gathered its open atoms once (openAtoms)
	distQ    distr.Distribution // U_Q, built from runs when first scanned

	// P-SD's rungs 4a and 7, with the summary (matchFirst): every
	// instance's distances to the hull query instances, instance after
	// instance, their sums, and the distances of the least; the
	// positive-mass instances in order of their sums (matchOrder, when a
	// rung first needs them).
	hullD, sums, first []float64
	order              []int32

	buckets []distr.Bucket // U_Q's bucket summary under bk, or nil
}

// cacheOf returns (creating on first use) the cache of the object with o's
// ID, out of the scratch's one map: how the exported methods, which take
// objects, keep identifying them by ID. A search never comes here.
func (c *Checker) cacheOf(o *uncertain.Object) *objCache {
	sc := c.scratch
	if oc, ok := sc.byID[o.ID()]; ok {
		return oc
	}
	if sc.byID == nil {
		sc.byID = make(map[int]*objCache, 64)
	}
	oc := sc.newObjCache(o)
	sc.byID[o.ID()] = oc
	return oc
}

// handle summarises o in a cache of its own, entered in no table: the engine
// resolves each object once per search and carries the result from then on.
func (c *Checker) handle(o *uncertain.Object) *objCache {
	return c.summary(c.scratch.newObjCache(o))
}

// summaryOf is summary on the cache of the object with o's ID.
func (c *Checker) summaryOf(o *uncertain.Object) *objCache { return c.summary(c.cacheOf(o)) }

// summary returns oc with its query summary built: the |Q|·m distances are
// evaluated once and yield the heap key min(U_Q), the statistics of U_Q and
// of every U_q, the atoms every later scan sorts on demand, for S-SD the
// bucket masses of its mass rung and, for P-SD, the hull distances rungs
// 4a and 7 read (matchFirst).
//
//nnc:hotpath
func (c *Checker) summary(oc *objCache) *objCache {
	if !oc.sumOK {
		o := oc.obj
		n := c.query.Len() * o.Len()
		oc.runs = c.scratch.pairs.Alloc(n)
		oc.perQStat = c.scratch.stats.Alloc(c.query.Len())
		if c.euclid {
			oc.stat = distr.Summarize(oc.runs, oc.perQStat, o, c.query, nil)
		} else {
			oc.stat = distr.Summarize(oc.runs, oc.perQStat, o, c.query, c.metric.Dist)
		}
		if c.bkPending {
			c.fixBuckets(oc)
		}
		if c.bk.N > 0 {
			c.bin(oc)
		}
		oc.sumOK = true
		c.Stats.InstanceComparisons += int64(n)
		if c.op == PSD && c.cfg.StatPruning {
			c.matchFirst(oc)
		}
	}
	return oc
}

// massBuckets is how many buckets S-SD's mass rung splits distances into
// (EXPERIMENTS.md sizes it).
const massBuckets = 32

// fixBuckets fixes the search's bucket edges from its first summary, oc:
// massBuckets buckets over [min, 2·max − min] of U_Q, none when that span
// is degenerate.
func (c *Checker) fixBuckets(oc *objCache) {
	c.bkPending = false
	if bk, ok := distr.NewBuckets(oc.stat.Min, 2*oc.stat.Max-oc.stat.Min, massBuckets); ok {
		c.bk = bk
	}
}

// bin builds oc's bucket summary from its runs, in a pass of its own after
// the summary's, which leaves distr.Summarize — every operator's distance
// loop — as it was: binning inside it measured no faster for S-SD and
// slower for P-SD (EXPERIMENTS.md).
func (c *Checker) bin(oc *objCache) {
	oc.buckets = c.scratch.buckets.AllocZeroed(c.bk.N + 1)
	m := oc.obj.Len()
	for j := range c.query.Len() {
		c.bk.Add(oc.buckets, oc.runs[j*m:(j+1)*m], c.query.Prob(j))
	}
	c.bk.Finish(oc.buckets)
}

// distQ returns U_Q as a sorted distribution, built the first time a scan or
// distr.Equal asks: the |Q| runs are sorted as the sweeps sort them
// (sortedRun), then weighted and merged (distr.MergeRuns) — U_Q is the
// mixture of the U_q, so it is never sorted as one slice.
func (c *Checker) distQ(oc *objCache) distr.Distribution {
	if !oc.distQOK {
		c.Stats.MixtureBuilds++
		c.sortedRun(oc, c.query.Len()-1)
		sc := c.scratch
		sc.mergeBuf = grow(sc.mergeBuf, len(oc.runs))
		oc.distQ = distr.MergeRuns(sc.pairs.Alloc(len(oc.runs)), sc.mergeBuf, oc.runs, oc.obj.Len(), c.query)
		oc.distQOK = true
	}
	return oc.distQ
}

// perQStatLE reports whether every U_q's statistics are ordered against
// V_q's — rung 2, necessary for U_q ≤st V_q at every query instance.
func (c *Checker) perQStatLE(su, sv *objCache) bool {
	n := su.obj.Len() + sv.obj.Len()
	for j, a := range su.perQStat {
		if !a.LE(sv.perQStat[j], n) {
			return false
		}
	}
	return true
}

// meansApart is the witness that U_Q ≠ V_Q: V's mean exceeds U's by more
// than distr.Equal could leave between two distributions it calls equal
// (distr.MeanBound).
func (c *Checker) meansApart(su, sv *objCache) bool {
	return sv.stat.Mean-su.stat.Mean > distr.MeanBound(len(su.runs)+len(sv.runs), max(su.stat.Max, sv.stat.Max))
}

// massWitness is the mass one atom must exceed to witness U_Q ≠ V_Q at a
// value where V_Q has none, whatever V is: MassBound of 2²⁶ atoms, above
// the tolerance of any distr.Equal under MassBound's premise.
const massWitness = 0x1p-26

// nearScan is band.massDominates' exact scan of U_Q against N_r, ns,
// sorted, one atom per query instance: whether U_Q's mass reaches N_r's
// within MassBound(|U_Q|)/2 at every value (band's comment), asked once
// witnessBelow holds. N_r's cumulative mass only steps at its own atoms,
// and U_Q's only grows, so it compares at N_r's atoms alone.
func (c *Checker) nearScan(su *objCache, ns []distr.Pair) bool {
	us := c.distQ(su).Pairs()
	tol := uncertain.MassBound(len(us)) / 2
	i, j, le := 0, 0, true
	var cu, cn float64
	for le && j < len(ns) {
		v := ns[j].Dist
		for ; i < len(us) && us[i].Dist <= v; i++ {
			cu += us[i].Prob
		}
		for ; j < len(ns) && ns[j].Dist <= v; j++ {
			cn += ns[j].Prob
		}
		le = cu >= cn-tol
	}
	c.Stats.InstanceComparisons += int64(i + j)
	return le
}

// witnessBelow is band.massDominates' witness that U_Q ≠ V_Q for every V
// inside the rectangle: an atom of U_Q below nmin, N_r's least positive
// atom, heavier than massWitness (band's comment). It reads the runs in
// whatever order they are: U_Q's atoms are their distances with the
// products MergeRuns weighs them by.
func (c *Checker) witnessBelow(su *objCache, nmin float64) bool {
	if su.stat.Min >= nmin {
		return false
	}
	m := su.obj.Len()
	for j := range c.query.Len() {
		qprob := c.query.Prob(j)
		for _, a := range su.runs[j*m : (j+1)*m] {
			if a.Dist < nmin && qprob*a.Prob > massWitness {
				return true
			}
		}
	}
	return false
}

// scanBound is the tolerance of the per-run scans of su against sv: the
// mass bound of the instances of both.
func scanBound(su, sv *objCache) float64 {
	return uncertain.MassBound(su.obj.Len() + sv.obj.Len())
}

// scansHold is SS-SD's exact test, U_q ≤st V_q within scanBound at every
// query instance: the statistics of rung 2, whose min and max the scans
// leave to it, then the scan half of P-SD's sweep on each pair of runs,
// sorted as it reaches them.
func (c *Checker) scansHold(su, sv *objCache) bool {
	if !c.perQStatLE(su, sv) {
		return false
	}
	tol := scanBound(su, sv)
	for j := 0; j < c.query.Len(); j++ {
		us, _ := c.sortedRun(su, j)
		vs, _ := c.sortedRun(sv, j)
		if !c.sweepInstance(us, vs, nil, nil, tol, true, false, nil) {
			return false
		}
	}
	return true
}

// unequal is the side condition U_Q ≠ V_Q of the exact tests: the witness
// when StatPruning is on and it holds, otherwise distr.Equal on the merged
// U_Q and V_Q.
func (c *Checker) unequal(su, sv *objCache) bool {
	if c.cfg.StatPruning && c.meansApart(su, sv) {
		return true
	}
	return !distr.Equal(c.distQ(su), c.distQ(sv))
}

// --- S-SD ---------------------------------------------------------------------

// ssd is S-SD past rung 1: rung 1a when the search has buckets, then
// rung 8.
func (c *Checker) ssd(su, sv *objCache) bool {
	if su.buckets != nil && sv.buckets != nil {
		le, decided := c.massOrder(su, sv)
		if decided && (!le || c.meansApart(su, sv)) {
			c.Stats.BucketDecisions++
			return le
		}
	}
	if !distr.StochasticLE(c.distQ(su), c.distQ(sv), &c.Stats.InstanceComparisons) {
		return false
	}
	return c.unequal(su, sv)
}

// massOrder is rung 1a on two objects: Order on their bucket summaries,
// then Scan on their atoms in the buckets Order leaves open (openAtoms) —
// unless both U_Q are built already, when the exact scan is the cheaper.
// It rejects where U's mass falls short of V's by 2·MassBound(|U_Q|+|V_Q|)
// and accepts where it never falls short by a quarter of it: either way
// StochasticLE, at its bound of MassBound(|U_Q|+|V_Q|), answers the same
// (band's comment).
//
//nnc:hotpath
func (c *Checker) massOrder(su, sv *objCache) (le, decided bool) {
	n := uncertain.MassBound(len(su.runs) + len(sv.runs))
	rej, acc := distr.Units(2*n), -distr.Units(n/4)
	le, decided, open := c.bk.Order(su.buckets, sv.buckets, rej, acc)
	if decided || su.distQOK && sv.distQOK {
		return le, decided
	}
	sc := c.scratch
	sc.openU = grow(sc.openU, len(su.runs))
	sc.openV = grow(sc.openV, len(sv.runs))
	return c.bk.Scan(su.buckets, sv.buckets, c.openAtoms(su, sc.openU, open), c.openAtoms(sv, sc.openV, open), rej, acc)
}

// openAtoms returns oc's atoms in the open buckets, sorted: gathered from
// the runs the first time, filtered from U_Q after that — built then, once,
// rather than sorting what the open buckets hold for every pair.
func (c *Checker) openAtoms(oc *objCache, dst []distr.Pair, open uint64) []distr.Pair {
	if oc.distQOK || oc.gathered {
		return c.bk.Filter(dst, c.distQ(oc).Pairs(), open)
	}
	oc.gathered = true
	return c.bk.Gather(dst, oc.runs, oc.obj.Len(), c.query, oc.perQStat, open)
}

// --- SS-SD --------------------------------------------------------------------

func (c *Checker) sssd(su, sv *objCache) bool {
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	// The exact test: U_q ≤st V_q at every query instance, then U_Q ≠ V_Q.
	return c.scansHold(su, sv) && c.unequal(su, sv)
}

// --- F-SD (instance level) ----------------------------------------------------

// fsd decides instance-level full spatial dominance: δmax(q,U) <= δmin(q,V)
// for every query instance, with the witness that U_Q ≠ V_Q: one strict
// row, or one query instance at which either object's distances spread
// (δmin < δmax). Rows that are all equalities with no spread make U_q and
// V_q one point mass at every q, so U_Q = V_Q: co-located copies do not
// dominate each other. Both extremes are per-query-instance statistics of
// the summary, so each pairwise check costs O(|Q|) comparisons — the
// amortized equivalent of the paper's NN/furthest-neighbor searches on the
// local R-trees.
func (c *Checker) fsd(su, sv *objCache) bool {
	witness := false
	for j, a := range su.perQStat {
		c.Stats.InstanceComparisons++
		b := sv.perQStat[j]
		if a.Max > b.Min {
			return false
		}
		witness = witness || a.Max < b.Min || a.Min < a.Max || b.Min < b.Max
	}
	return witness
}

// fplussd is the MBR-only baseline of [16]. F+SD never looks inside an
// MBR, so on two objects it is the rectangle predicate itself (fplus),
// whose witness of U_Q ≠ V_Q is a strict row.
func (c *Checker) fplussd(su, sv *objCache) bool {
	c.Stats.InstanceComparisons++
	return c.rectDominates(su.obj.MBR(), sv.obj.MBR())
}

// rectPred is the rectangle-level dominance predicate of one query under
// one operator, defined once for its two askers: Algorithm 1's entry
// pruning (Checker, which embeds it) and the front door's insert
// invalidation (AnswerShield).
type rectPred struct {
	op     Operator
	metric geom.Metric
	euclid bool // fast paths for the default metric
	// hull holds the query instances the point-level tests range over, one
	// after another, each of the query's dimension — len(qMBR.Lo).
	hull []float64
	qMBR geom.Rect
}

// hullLen is how many query instances hull holds.
func (p *rectPred) hullLen() int { return len(p.hull) / len(p.qMBR.Lo) }

// hullPt is hull's query instance t, a view of the slab.
func (p *rectPred) hullPt(t int) geom.Point {
	d := len(p.qMBR.Lo)
	return p.hull[t*d : (t+1)*d : (t+1)*d]
}

// far is the largest distance from q to a point of r, near the smallest.
// Rectangle domination is a component-wise comparison of a's far vector
// against b's near vector over the hull query instances (Emrich, Kriegel &
// Züfle), in distances, the domain of the summary's: near is never larger
// than a distance the summary computes from q to an instance in the
// rectangle, far never smaller (band's comment in engine.go).
func (p *rectPred) far(q geom.Point, r geom.Rect) float64 {
	if p.euclid {
		return r.MaxDistPoint(q)
	}
	return p.metric.MaxDistRect(q, r)
}

func (p *rectPred) near(q geom.Point, r geom.Rect) float64 {
	if p.euclid {
		return r.MinDistPoint(q)
	}
	return p.metric.MinDistRect(q, r)
}

// within is one component of the far ≤ near comparison: whether a's far distance f
// from a query instance is no larger than b's near distance n, recording in
// strict a component where it is smaller. le folds it over the hull query
// instances, band.dominatesRect over the band's far slab.
func within(f, n float64, strict *bool) bool {
	if f < n {
		*strict = true
	}
	return f <= n
}

// le reports whether every point of a is at least as close as every point
// of b to every hull query instance (the MBR-level u ⪯Q v test), with a
// strictness witness and the number of query instances it looked at.
func (p *rectPred) le(a, b geom.Rect) (le, strict bool, compared int) {
	for t := range p.hullLen() {
		q := p.hullPt(t)
		compared++
		if !within(p.far(q, a), p.near(q, b), &strict) {
			return false, false, compared
		}
	}
	return true, strict, compared
}

// dominates reports whether every object bounded by rectangle a dominates,
// under the operator, every object bounded by rectangle b. For S/SS/P/F-SD
// that is le with a strictness witness: F-SD between the rectangles, which
// the cover chain F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD carries to the operator. F+SD
// is not in that chain — it quantifies over the whole query MBR, which le
// against the query instances does not imply — so it is asked directly.
func (p *rectPred) dominates(a, b geom.Rect) (dom bool, compared int) {
	if p.op == FPlusSD {
		return p.fplus(a, b)
	}
	le, strict, compared := p.le(a, b)
	return le && strict, compared
}

// fplus is F+SD on two rectangles: the two MBRs against the query's MBR
// (Euclidean), or against the query instances with metric rectangle bounds
// for other metrics, with le's witness of U_Q ≠ V_Q for every pair of
// objects inside them: a hull query instance strictly nearer to all of a
// than to any of b. A spread inside a rectangle is no witness: a point
// object at a's far corner and its copy at b's near corner spread nowhere.
func (p *rectPred) fplus(a, b geom.Rect) (dom bool, compared int) {
	if !p.euclid {
		le, strict, compared := p.le(a, b)
		return le && strict, compared
	}
	if !geom.FSDMBR(a, b, p.qMBR) {
		return false, 0
	}
	for t := range p.hullLen() {
		q := p.hullPt(t)
		compared++
		if p.far(q, a) < p.near(q, b) {
			return true, compared
		}
	}
	return false, compared
}

// rectDominates is the entry-pruning predicate of Algorithm 1 on one pair of
// rectangles; band.dominatesRect asks it of a whole band at once.
func (c *Checker) rectDominates(a, b geom.Rect) bool {
	dom, compared := c.dominates(a, b)
	c.Stats.InstanceComparisons += int64(compared)
	return dom
}

// MinPairDist returns min(U_Q): the exact smallest pairwise distance
// between the query and the object's positive-mass instances under the
// checker's metric — the key Algorithm 1 (and its disk-resident variant)
// orders objects by. It is read off the object's summary, which the
// dominance checks that follow reuse.
func (c *Checker) MinPairDist(o *uncertain.Object) float64 { return c.summaryOf(o).stat.Min }
