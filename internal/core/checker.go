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
	rectPred // op, metric, euclid, posFirst (the points of posFirstIdx), qMBR

	query       *uncertain.Object
	cfg         FilterConfig
	statCut     bool     // StatPruning is on and the operator implies S-SD
	posFirstIdx []int    // the query's instance indices, positive mass first: rectPred's order
	qMass       []uint64 // per query instance: its integer mass c(p) (distr.Units)
	qTotal      uint64   // their sum, T_Q

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

// NewCheckerMetric is NewChecker under an arbitrary metric. Every filter
// applies under every metric but the band's stopping radius, which is
// L2's alone (band); verdicts are metric-exact.
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
//     1a. S-SD's mass rung (massOrder): U_Q ≤st V_Q and a strict point read
//     off the two objects' bucket summaries, then off their atoms in the
//     buckets the summaries leave open — U_Q is built only for an object
//     whose open atoms it needs twice;
//  2. per-query-instance statistics: the same three of each U_q (SS-SD, P-SD);
//  4. the sweep of the sorted runs: per-query-instance stochastic scans as
//     cover-based pruning, and the admissibility rows of rung 8 (P-SD),
//     which P-SD's rung 4a precedes: an instance of positive mass without
//     a partner under ⪯Q refutes off the summary (isolated);
//  7. P-SD's match witness (matchValidate): Theorem 1's match, walked
//     over instances in order of summed distance;
//  8. the exact test: the scan of U_Q, or the Theorem 12 max-flow.
//
// Missing numbers are deleted rungs; the documents cite the others by
// number. Cover validation on MBRs (Theorem 4) is the band's entry test,
// asked before an object is read (engine.go): F-SD between member and
// rectangle for the cover chain, and under S-SD also U_Q ≤st N_r, the
// rectangle's near distribution (band's comment).
//
// Every mass comparison is exact, on the integer masses of distr's rule
// (mass.go), so S-SD, SS-SD and P-SD are strict partial orders with P-SD ⇒
// SS-SD ⇒ S-SD, and a rung that answers answers as rung 8 would. Rung 1a
// compares the same integers as rung 8's scan. Rungs 1, 2, 4 and 4a can
// only answer "no": the statistics are necessary for the scans (Theorem
// 11, the means under distr.MeanBound), a failed per-instance scan refutes
// SS-SD and so P-SD, and mass without a partner cannot ship. Rung 7 only
// answers "yes", with a match that is a flow over the rows rung 8 solves.
// U_Q ≠ V_Q is read off the comparison made: a strict point (S-SD), a
// strict run at a query instance of positive mass (SS-SD, P-SD's sweep), a
// tuple strictly nearer at a query instance of positive mass (rung 7), and
// otherwise the scan of U_Q. Each rung is gated by the FilterConfig flag
// it always was, rungs 7 and 4a by StatPruning.
func (c *Checker) Dominates(u, v *uncertain.Object) bool {
	return c.sd(c.cacheOf(u), c.cacheOf(v))
}

// sd is Dominates on two caches, the way a search's tie batch asks.
//
// Every verdict keeps the key order: a dominator's min(U_Q) is no larger
// than the dominated object's, compared exactly. Algorithm 1's heap, its
// tie batch and the answer shield rely on it (engine.go, shield.go). Rung 1
// asks it; the scans of S-SD and SS-SD, P-SD's rows and F-SD's rows imply
// it, each at the query instance where V's least distance lies; but F+SD's
// per-dimension sums imply it in real arithmetic only — they may round an
// ulp the other way — so without rung 1 it is asked on its own. The
// search's band asks decide directly: its members were popped first, in
// key order.
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
	runs     []distr.Atom // |Q| runs of m atoms, one U_q each
	mass     []uint64     // each instance's integer mass c(p), which its atoms weigh
	total    uint64       // their sum, T
	sorted   int          // runs [0, sorted) went through sortedRun
	gathered bool         // massOrder gathered its open atoms once (openAtoms)
	distQ    []distr.Atom // U_Q, built from atoms when first scanned

	// P-SD's rungs 4a and 7, with the summary (matchFirst): every
	// instance's distances to the query instances, positive mass first,
	// instance after instance, their sums, and the distances of the least;
	// the positive-mass instances in order of their sums (matchOrder, when
	// a rung first needs them).
	posFirstD, sums, first []float64
	order                  []int32

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
// of every U_q, the atoms every later scan sorts on demand, the integer
// masses of the instances, for S-SD the
// bucket masses of its mass rung and, for P-SD, the distances rungs 4a and
// 7 read in rectPred's order (matchFirst).
//
//nnc:hotpath
func (c *Checker) summary(oc *objCache) *objCache {
	if !oc.sumOK {
		o := oc.obj
		n := c.query.Len() * o.Len()
		oc.runs = c.scratch.atoms.Alloc(n)
		oc.perQStat = c.scratch.stats.Alloc(c.query.Len())
		oc.mass = c.scratch.masses.Alloc(o.Len())
		oc.total = distr.Masses(oc.mass, o.Probs())
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

// bin builds oc's bucket summary from its runs of positive query mass, in
// a pass of its own after the summary's, which leaves distr.Summarize —
// every operator's distance loop — as it was: binning inside it measured
// no faster for S-SD and slower for P-SD (EXPERIMENTS.md).
func (c *Checker) bin(oc *objCache) {
	oc.buckets = c.scratch.buckets.AllocZeroed(c.bk.N + 1)
	m := oc.obj.Len()
	for j, w := range c.qMass {
		if w > 0 {
			c.bk.Add(oc.buckets, oc.runs[j*m:(j+1)*m], w, oc.mass)
		}
	}
	c.bk.Finish(oc.buckets)
}

// distQ returns U_Q's atoms sorted, built the first time a scan asks: the
// |Q| runs are sorted as the sweeps sort them (sortedRun), then merged
// (distr.MergeRuns) — U_Q is the mixture of the U_q, so it is
// never sorted as one slice.
func (c *Checker) distQ(oc *objCache) []distr.Atom {
	if oc.distQ == nil {
		c.Stats.MixtureBuilds++
		c.sortedRun(oc, c.query.Len()-1)
		sc := c.scratch
		sc.mergeBuf = grow(sc.mergeBuf, len(oc.runs))
		oc.distQ = distr.MergeRuns(sc.atoms.Alloc(len(oc.runs)), sc.mergeBuf, oc.runs, oc.obj.Len())
	}
	return oc.distQ
}

// qNorm compares su's U_Q against sv's: atoms weighing c(p_q)·c(p_u), of
// totals T_Q·T_U and T_Q·T_V.
func (c *Checker) qNorm(su, sv *objCache) distr.Norm {
	return distr.NewNorm(c.qMass, su.mass, sv.mass, su.total, sv.total, c.qTotal)
}

// runNorm compares su's U_q against sv's at any query instance: atoms
// weighing c(p_u) under the unit table, of totals T_U and T_V.
func runNorm(su, sv *objCache) distr.Norm {
	return distr.NewNorm(unitMass, su.mass, sv.mass, su.total, sv.total, 1)
}

// unitMass is the mass table of a run's query side and of N_r's object
// side: the one mass 1, at index 0.
var unitMass = []uint64{1}

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

// nearScan is band.massDominates' exact test U_Q ≤st N_r, asked once U_Q
// has an atom below N_r's least (band's comment): ns is N_r sorted, an atom
// at each query instance's near distance, weighing c(p_q)·1 under the unit
// table, of the total T_Q where U_Q's is T_Q·T_U.
func (c *Checker) nearScan(su *objCache, ns []distr.Atom) bool {
	norm := distr.NewNorm(c.qMass, su.mass, unitMass, su.total, 1, c.qTotal)
	le, _, n := norm.StochasticLE(c.distQ(su), ns, distr.Mass{}, distr.Mass{}, false)
	c.Stats.InstanceComparisons += int64(n)
	return le
}

// unequal is U_Q ≠ V_Q, for P-SD without the sweep's scans: the exact scan
// of U_Q against V_Q fails or finds a strict point.
func (c *Checker) unequal(su, sv *objCache) bool {
	n := c.qNorm(su, sv)
	le, strict, _ := n.StochasticLE(c.distQ(su), c.distQ(sv), distr.Mass{}, distr.Mass{}, true)
	return !le || strict
}

// --- S-SD ---------------------------------------------------------------------

// ssd is S-SD past rung 1: rung 1a when the search has buckets, then
// rung 8, the scan of U_Q against V_Q, whose strict point is U_Q ≠ V_Q.
func (c *Checker) ssd(su, sv *objCache) bool {
	if su.buckets != nil && sv.buckets != nil {
		if le, strict, decided := c.massOrder(su, sv); decided {
			c.Stats.BucketDecisions++
			return le && strict
		}
	}
	n := c.qNorm(su, sv)
	le, strict, k := n.StochasticLE(c.distQ(su), c.distQ(sv), distr.Mass{}, distr.Mass{}, true)
	c.Stats.InstanceComparisons += int64(k)
	return le && strict
}

// massOrder is rung 1a on two objects: Order on their bucket summaries,
// then Scan on their atoms in the buckets Order leaves open (openAtoms) —
// unless both U_Q are built already, when the exact scan is the cheaper.
// Between them they compare F_U against F_V at every value, as rung 8's
// scan does, on the same integers; a strict point inside a clear bucket
// is one Order names (distr.Buckets.Order).
//
//nnc:hotpath
func (c *Checker) massOrder(su, sv *objCache) (le, strict, decided bool) {
	n := c.qNorm(su, sv)
	le, strict, open := c.bk.Order(su.buckets, sv.buckets, &n)
	if !le || open == 0 {
		return le, strict, true
	}
	if su.distQ != nil && sv.distQ != nil {
		return false, false, false
	}
	sc := c.scratch
	sc.openU = grow(sc.openU, len(su.runs))
	sc.openV = grow(sc.openV, len(sv.runs))
	le, s := c.bk.Scan(su.buckets, sv.buckets, c.openAtoms(su, sc.openU, open), c.openAtoms(sv, sc.openV, open), open, &n)
	return le, strict || s, true
}

// openAtoms returns oc's atoms in the open buckets, sorted: gathered from
// the runs the first time, filtered from U_Q after that — built then, once,
// rather than sorting what the open buckets hold for every pair.
func (c *Checker) openAtoms(oc *objCache, dst []distr.Atom, open uint64) []distr.Atom {
	if oc.distQ != nil || oc.gathered {
		return c.bk.Filter(dst, c.distQ(oc), c.qMass, oc.mass, open)
	}
	oc.gathered = true
	return c.bk.Gather(dst, oc.runs, oc.obj.Len(), c.qMass, oc.mass, oc.perQStat, open)
}

// --- SS-SD --------------------------------------------------------------------

// sssd is SS-SD past rung 1: rung 2, then the exact test, U_q ≤st V_q at
// every query instance with a strict run at one of positive mass.
func (c *Checker) sssd(su, sv *objCache) bool {
	if c.cfg.StatPruning && !c.perQStatLE(su, sv) {
		c.Stats.StatPrunes++
		return false
	}
	_, ok := c.sweep(su, sv, true, false)
	return ok && c.strictRun(su, sv)
}

// strictRun reports a query instance of positive mass at which U_q's mass
// exceeds V_q's somewhere. With U_q ≤st V_q at every instance, that is
// U_Q ≠ V_Q exactly, as U_Q mixes the U_q by the query's masses.
func (c *Checker) strictRun(su, sv *objCache) bool {
	n := runNorm(su, sv)
	for j, w := range c.qMass {
		if w > 0 {
			us, vs := c.sortedRun(su, j), c.sortedRun(sv, j)
			if _, strict, _ := n.StochasticLE(us, vs, distr.Mass{}, distr.Mass{}, true); strict {
				return true
			}
		}
	}
	return false
}

// --- F-SD (instance level) ----------------------------------------------------

// fsd decides instance-level full spatial dominance: δmax(q,U) <= δmin(q,V)
// for every query instance, with the witness that U_Q ≠ V_Q: one strict
// row, or one query instance at which either object's distances spread
// (δmin < δmax), at a query instance of positive mass. Without one, U_q
// and V_q are one point mass at every such q, so U_Q = V_Q: co-located
// copies do not dominate each other, nor do objects told apart only where
// the query has no mass. Both extremes are per-query-instance statistics of
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
		witness = witness || c.qMass[j] > 0 && (a.Max < b.Min || a.Min < a.Max || b.Min < b.Max)
	}
	return witness
}

// fplussd is the MBR-only baseline of [16]. F+SD never looks inside an
// MBR, so on two objects it is the rectangle predicate itself (fplus),
// whose witness of U_Q ≠ V_Q is a strict row at a query instance of
// positive mass.
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
	// posFirst holds every query instance, one after another, each of the
	// query's dimension — len(qMBR.Lo) — those of positive mass first: the
	// first pos of them (massFirst). The point-level tests range over all
	// of them.
	posFirst []float64
	pos      int
	qMBR     geom.Rect
}

// massFirst appends to dst the indices of q's instances, those of positive
// mass first, each group in instance order, and returns them with the
// number of positive mass: the order of rectPred's posFirst, in which a
// strict row counts only among the first pos.
func massFirst(dst []int, q *uncertain.Object) (order []int, pos int) {
	for _, positive := range [2]bool{true, false} {
		for j := range q.Len() {
			if (q.Prob(j) > 0) == positive {
				dst = append(dst, j)
			}
		}
		if positive {
			pos = len(dst)
		}
	}
	return dst, pos
}

// posFirstLen is how many query instances posFirst holds: all of them.
func (p *rectPred) posFirstLen() int { return len(p.posFirst) / len(p.qMBR.Lo) }

// posFirstPt is posFirst's query instance t, a view of the slab.
func (p *rectPred) posFirstPt(t int) geom.Point {
	d := len(p.qMBR.Lo)
	return p.posFirst[t*d : (t+1)*d : (t+1)*d]
}

// far is the largest distance from q to a point of r, near the smallest.
// Rectangle domination is a component-wise comparison of a's far vector
// against b's near vector over the query instances (Emrich, Kriegel &
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
// strict a component where it is smaller at an instance of positive mass.
// le folds it over the query instances, band.dominatesRect over the
// band's far slab.
func within(f, n float64, positive bool, strict *bool) bool {
	if f < n && positive {
		*strict = true
	}
	return f <= n
}

// le reports whether every point of a is at least as close as every point
// of b to every query instance (the MBR-level u ⪯Q v test), with a
// strictness witness and the number of query instances it looked at.
func (p *rectPred) le(a, b geom.Rect) (le, strict bool, compared int) {
	for t := range p.posFirstLen() {
		q := p.posFirstPt(t)
		compared++
		if !within(p.far(q, a), p.near(q, b), t < p.pos, &strict) {
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
// objects inside them: a query instance of positive mass strictly
// nearer to all of a than to any of b. A spread inside a rectangle is no
// witness: a point object at a's far corner and its copy at b's near
// corner spread nowhere.
func (p *rectPred) fplus(a, b geom.Rect) (dom bool, compared int) {
	if !p.euclid {
		le, strict, compared := p.le(a, b)
		return le && strict, compared
	}
	if !geom.FSDMBR(a, b, p.qMBR) {
		return false, 0
	}
	for t := range p.pos {
		q := p.posFirstPt(t)
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
