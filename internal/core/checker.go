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
	rectPred // op, metric, euclid, hullPts (the points of hullIdx), qMBR

	query   *uncertain.Object
	cfg     FilterConfig
	statCut bool   // StatPruning is on and the operator implies S-SD
	hullIdx []int  // indices into query instances used by point-level checks
	isHull  []bool // per query instance: whether hullIdx names it

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
//  2. per-query-instance statistics: the same three of each U_q (SS-SD, P-SD);
//  4. the sweep of the sorted runs: per-query-instance stochastic scans as
//     cover-based pruning, and the admissibility rows of rung 8 (P-SD),
//     which P-SD's rung 4a precedes: an instance of positive mass without
//     a partner under ⪯Q refutes off the summary (isolated);
//  7. cover validation on the summary (coverValidate): F-SD at the hull
//     instances or, for S-SD, the SS-SD scans, with a witness U_Q ≠ V_Q;
//     for P-SD then Theorem 1's match, walked over instances in order of
//     summed distance (matchValidate);
//  8. the exact test: the sorted-atom scan, or the Theorem 12 max-flow.
//
// Missing numbers are deleted rungs; the documents cite the others by
// number. Cover validation on MBRs (Theorem 4) is the band's entry test,
// asked before an object is read (engine.go).
//
// Rungs 1, 2, 4 and 4a can only answer "no", rung 7 only "yes", so their
// order never changes a verdict, only what it costs — provided a "no" rung
// placed before a validation cannot fire on a pair the validation would
// have accepted. It cannot: validation holds when every instance of U is
// at least as close as every instance of V to every hull instance of Q,
// hence (the bisector halfspaces being convex) to every instance of Q; then
// each U_q lies entirely at or below V_q, and min, mean and max of U_q and
// of the mixture U_Q are ordered, which is exactly what rungs 1 and 2 test.
// Rungs 1 and 2 are in turn necessary for the scans of rungs 4 and 8
// (Theorem 11: X ≤st Y implies the statistics are ordered), so a pair they
// reject is one a scan would have rejected, later and dearer. Rung 7 is
// where each operator's own rungs end and the work it saves begins: P-SD
// reads it before rung 4a and its sweep. Each rung is gated by the
// FilterConfig flag it always was, rungs 7 and 4a by StatPruning. Rung 4a
// answers only what rung 8 would: mass without a partner cannot ship, so
// the transport falls short.
//
// Every rung compares by one rule (distr's package comment): distances
// exactly, accumulated mass under uncertain.MassBound of the atoms summed,
// a single atom's mass exactly. Rung 7 takes only verdicts rung 8 would
// take. (i) F-SD at the hull instances puts every U_q at or below V_q, and
// makes every pair of P-SD's rows admissible, so the transport ships all
// the mass. (ii) Scans that hold within roundSlack at every instance keep
// the mixture's scan within its bound (roundSlack's proof). (iii) The
// witness meansApart is a gap distr.Equal cannot leave (distr.MeanBound).
// (iv) P-SD's match compares the summary's distances exactly, so each of
// its tuples is a pair the rows admit, and it visits every positive-mass
// instance and leaves at most half the bound unshipped (matchValidate).
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
	distQ    distr.Distribution // U_Q, built from runs when first scanned

	// P-SD's rungs 4a and 7, with the summary (matchFirst): every
	// instance's distances to the hull query instances, instance after
	// instance, their sums, and the distances of the least; the
	// positive-mass instances in order of their sums (matchOrder, when a
	// rung first needs them).
	hullD, sums, first []float64
	order              []int32
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
// of every U_q, the atoms every later scan sorts on demand and, for P-SD,
// the hull distances rungs 4a and 7 read (matchFirst).
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
		oc.sumOK = true
		c.Stats.InstanceComparisons += int64(n)
		if c.op == PSD && c.cfg.StatPruning {
			c.matchFirst(oc)
		}
	}
	return oc
}

// distQ returns U_Q as a sorted distribution, built the first time a scan or
// distr.Equal asks: the |Q| runs are sorted as the sweeps sort them
// (sortedRun), then weighted and merged (distr.MergeRuns) — U_Q is the
// mixture of the U_q, so it is never sorted as one slice.
func (c *Checker) distQ(oc *objCache) distr.Distribution {
	if !oc.distQOK {
		c.sortedRun(oc, c.query.Len()-1)
		sc := c.scratch
		sc.mergeBuf = growPairs(sc.mergeBuf, len(oc.runs))
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

// --- cover validation on the summary -----------------------------------------

// coverValidate is rung 7: the cover chain F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD read
// off the two summaries, so that a pair a cheaper operator already decides
// never reaches the exact test. It needs the witness that U_Q ≠ V_Q
// (meansApart) and then either F-SD at the hull instances or, with scans
// (S-SD only, and a query of more than one instance, where one run's scan
// is the mixture's), U_q ≤st V_q within roundSlack at every query
// instance, on the runs a merge of U_Q would sort anyway. It is counted
// where its verdict is taken.
//
//nnc:hotpath
func (c *Checker) coverValidate(su, sv *objCache, scans bool) bool {
	if !c.cfg.StatPruning || !c.meansApart(su, sv) {
		return false
	}
	if !c.fsdAtHull(su, sv) && !(scans && c.query.Len() > 1 && c.scansHold(su, sv, roundSlack(su.obj.Len()+sv.obj.Len()))) {
		return false
	}
	c.Stats.CoverValidations++
	return true
}

// roundSlack is rung 7's tolerance on the per-run scans of two objects of
// n instances in all: half their MassBound, so that scans holding within
// it leave the mixture's scan within the mixture's bound, for |Q| ≥ 2.
// Proof, with u = 2⁻⁵³ and N = |Q|·n the mixture's atoms, to first order:
// a run's scan sums at most n atoms, so where it holds within T the exact
// CDFs of U_q and V_q are at most T + (n−2)·u apart the wrong way; the
// mixture's atoms fl(p(q)·p) add u on each side, so its exact CDFs are at
// most T + n·u apart; its own scan sums at most N atoms and errs by at
// most (N−2)·u. With T = n·u that is (N + 2n − 2)·u ≤ 2N·u =
// uncertain.MassBound(N) whenever |Q| ≥ 2, with 2·u to spare for the
// second-order terms. It is not the scans' own tolerance: it only makes
// rung 7 say "yes" less often.
func roundSlack(n int) float64 { return uncertain.MassBound(n) / 2 }

// meansApart is the witness that U_Q ≠ V_Q: V's mean exceeds U's by more
// than distr.Equal could leave between two distributions it calls equal
// (distr.MeanBound).
func (c *Checker) meansApart(su, sv *objCache) bool {
	return sv.stat.Mean-su.stat.Mean > distr.MeanBound(len(su.runs)+len(sv.runs), max(su.stat.Max, sv.stat.Max))
}

// fsdAtHull reports F-SD at the hull query instances: every positive-mass
// instance of U at least as close as every one of V, read off the
// per-query-instance extremes with no sort.
func (c *Checker) fsdAtHull(su, sv *objCache) bool {
	for _, j := range c.hullIdx {
		if su.perQStat[j].Max > sv.perQStat[j].Min {
			return false
		}
	}
	return true
}

// scanBound is the tolerance of the per-run scans of su against sv: the
// mass bound of the instances of both.
func scanBound(su, sv *objCache) float64 {
	return uncertain.MassBound(su.obj.Len() + sv.obj.Len())
}

// scansHold reports whether U_q ≤st V_q within tol at every query instance:
// the statistics of rung 2, whose min and max the scans leave to it, then
// the scan half of P-SD's sweep on each pair of runs, sorted as it reaches
// them. With tol = scanBound it is SS-SD's exact test.
func (c *Checker) scansHold(su, sv *objCache, tol float64) bool {
	if !c.perQStatLE(su, sv) {
		return false
	}
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

func (c *Checker) ssd(su, sv *objCache) bool {
	if c.coverValidate(su, sv, true) {
		return true
	}
	if !distr.StochasticLE(c.distQ(su), c.distQ(sv), &c.Stats.InstanceComparisons) {
		return false
	}
	return c.unequal(su, sv)
}

// --- SS-SD --------------------------------------------------------------------

func (c *Checker) sssd(su, sv *objCache) bool {
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	if c.coverValidate(su, sv, false) {
		return true
	}
	// The exact test: U_q ≤st V_q at every query instance, then U_Q ≠ V_Q.
	return c.scansHold(su, sv, scanBound(su, sv)) && c.unequal(su, sv)
}

// --- F-SD (instance level) ----------------------------------------------------

// fsd decides instance-level full spatial dominance: δmax(q,U) <= δmin(q,V)
// for every query instance. Both extremes are per-query-instance statistics
// of the summary, so each pairwise check costs O(|Q|) comparisons — the
// amortized equivalent of the paper's NN/furthest-neighbor searches on the
// local R-trees.
func (c *Checker) fsd(su, sv *objCache) bool {
	for j, a := range su.perQStat {
		c.Stats.InstanceComparisons++
		if a.Max > sv.perQStat[j].Min {
			return false
		}
	}
	return true
}

// fplussd is the MBR-only baseline of [16]. F+SD never looks inside an
// MBR, so on two objects it is the rectangle predicate itself (fplus).
func (c *Checker) fplussd(su, sv *objCache) bool {
	c.Stats.InstanceComparisons++
	return c.rectDominates(su.obj.MBR(), sv.obj.MBR())
}

// rectPred is the rectangle-level dominance predicate of one query under
// one operator, defined once for its two askers: Algorithm 1's entry
// pruning (Checker, which embeds it) and the front door's insert
// invalidation (AnswerShield).
type rectPred struct {
	op      Operator
	metric  geom.Metric
	euclid  bool         // fast paths for the default metric
	hullPts []geom.Point // query instances the point-level tests range over
	qMBR    geom.Rect
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
	for _, q := range p.hullPts {
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
// for other metrics. It carries no U_Q ≠ V_Q side condition.
func (p *rectPred) fplus(a, b geom.Rect) (dom bool, compared int) {
	if p.euclid {
		return geom.FSDMBR(a, b, p.qMBR), 0
	}
	le, _, compared := p.le(a, b)
	return le, compared
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
