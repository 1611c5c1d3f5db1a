package core

// Answer shielding: the geometry behind the serving tier's precise cache
// invalidation. A cached k-candidate answer for query Q survives a dataset
// mutation exactly when the mutation provably cannot change the candidate
// set or any candidate's dominator count:
//
// Insert of a new object O. Two conditions, both derived from the same
// facts Algorithm 1's correctness rests on, jointly shield the answer:
//
//  1. O dominates no cached candidate. Statistic necessity (Theorem 11's
//     min statistic, the property the engine orders its heap by) says any
//     dominator U of V has min(U_Q) <= min(V_Q). Each candidate's exact
//     key min(V_Q) is recorded in the answer, and min(O_Q) is lower-
//     bounded by the metric's rect-rect distance between O's MBR and Q's
//     MBR — so RectMinDist(O.MBR, Q.MBR) > max candidate key rules every
//     domination out, leaving all dominator counts intact.
//
//  2. O is not itself a candidate. Theorem 4 (cover-based validation): if
//     k cached candidates' MBRs dominate O's MBR under the answer's
//     operator — the entry-pruning predicate of Algorithm 1, rectPred:
//     strict separation w.r.t. the query instances for S/SS/P/F-SD, the
//     whole-query-MBR criterion for F+SD — every object inside that MBR,
//     O in particular, has at least k dominators and is outside the
//     k-skyband. Candidates are precisely the band Algorithm 1 would have
//     tested O against, so the test needs nothing beyond the cached answer
//     and the operator that produced it.
//
//     Under the Euclidean metric the usual verdict takes one O(d) distance:
//     farK is the k-th smallest MaxDistRect(candidate MBR, query MBR),
//     and an O whose MBR lies farther than that from the query MBR is
//     strictly dominated by those k candidates at every hull instance.
//
// Since O neither joins the band nor dominates a band member, and
// reported dominator counts only range over band members (every true
// dominator of a candidate is itself a candidate — see the engine header:
// a non-band dominator would carry k dominators of its own into V by
// transitivity), the candidate list is bit-for-bit unchanged.
//
// Delete of an object X needs no geometry at all: by the same
// transitivity argument, deleting a non-candidate X can neither promote
// another object into the band (X's own >= k dominators keep dominating
// anything X dominated) nor change a count (non-band objects are never
// counted). So an answer is affected only when X is one of its result
// IDs — the front door tests membership directly and nothing here is
// needed beyond that rule, documented where the proof lives.

import (
	"math"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// AnswerShield is the per-answer invalidation decider, built once when a
// result enters the cache and consulted on every subsequent insert. It
// retains the query's MBR and (hull) points and the answer's candidate
// slice, shared with the cached Result — no copies of the candidates'
// rectangles, no checker arenas — so an entry's shield costs a header.
type AnswerShield struct {
	rectPred
	k int
	// maxKey is the largest exact candidate key min(V_Q); an inserted
	// object whose MBR lower bound exceeds it cannot dominate anything in
	// the answer.
	maxKey float64
	// farK is the k-th smallest MaxDistRect(candidate MBR, query MBR), the
	// distance of the farthest pair of points: an inserted MBR whose
	// distance to the query MBR exceeds it is strictly dominated by k
	// candidates (see ShieldsInsert). It is +Inf, so the
	// radius never decides, with fewer than k candidates, under F+SD, or
	// off the Euclidean metric.
	farK float64
	// band is the answer's candidates; their objects' MBRs are the
	// rectangles of the Theorem 4 test.
	band []Candidate
}

// NewAnswerShield captures what a cached answer needs to survive
// mutations: the query's MBR and hull instances, the candidates and the
// largest exact candidate key. cands is kept, not copied — the door hands
// over the cached Result's own slice, which nothing changes after the
// search returns. Under the Euclidean metric the point
// set is reduced to the query's convex hull (the paper's geometric
// restriction, exact for L2); other metrics keep every instance, exactly
// as the checker does.
func NewAnswerShield(q *uncertain.Object, op Operator, m geom.Metric, k int, cands []Candidate) *AnswerShield {
	if m == nil {
		m = geom.Euclidean
	}
	s := &AnswerShield{
		rectPred: rectPred{op: op, metric: m, euclid: m == geom.Euclidean, qMBR: q.MBR()},
		k:        k,
	}
	if s.euclid {
		for _, j := range q.HullIndices() {
			s.hullPts = append(s.hullPts, q.Instance(j))
		}
	} else {
		for j := 0; j < q.Len(); j++ {
			s.hullPts = append(s.hullPts, q.Instance(j))
		}
	}
	s.band = cands
	for _, c := range cands {
		if c.MinDist > s.maxKey {
			s.maxKey = c.MinDist
		}
	}
	s.farK = math.Inf(1)
	if s.euclid && op != FPlusSD && k >= 1 && k <= len(cands) {
		far := make([]float64, 0, k)
		for _, c := range cands {
			far = keepNearest(far, k, c.Object.MBR().MaxDistRect(s.qMBR))
		}
		s.farK = far[k-1]
	}
	return s
}

// keepNearest adds d to far, the ascending list of the k smallest
// distances seen so far, and returns the list; its k-th element is then the
// radius of the members seen. A NaN distance counts as +Inf: it never
// brings a rectangle inside the radius. One insertion costs O(k). The
// answer shield (farK, over MaxDistRect(candidate MBR, query MBR)) and
// the search's band (engine.go, over each member's reach) both build their
// radius here.
func keepNearest(far []float64, k int, d float64) []float64 {
	if math.IsNaN(d) {
		d = math.Inf(1)
	}
	if len(far) < k {
		far = append(far, d)
	} else if d >= far[k-1] {
		return far
	}
	i := len(far) - 1
	for i > 0 && far[i-1] > d {
		far[i] = far[i-1]
		i--
	}
	far[i] = d
	return far
}

// ShieldsInsert reports whether inserting an object bounded by r provably
// leaves the shielded answer byte-identical: r is too far to dominate any
// candidate (statistic necessity against the recorded keys) AND at least
// k candidates' MBRs dominate r under the answer's operator (Theorem 4, so
// the new object is outside the k-skyband). A false return means "could affect" — the
// caller must drop the cached answer. r is an object's MBR: Lo ≤ Hi in
// every dimension.
func (s *AnswerShield) ShieldsInsert(r geom.Rect) bool {
	if len(r.Lo) != len(s.qMBR.Lo) {
		// Dimension mismatch should have been rejected upstream; treat it
		// as unshielded so a bad insert can never preserve a stale answer.
		return false
	}
	// Condition 1: min(O_Q) >= RectMinDist(r, qmbr) > maxKey means O
	// dominates nothing in the answer. Every verdict keeps the key order —
	// a dominator's min(U_Q) is no larger than the dominated object's,
	// compared exactly (Checker.sd) — and near is no larger than any
	// distance the summary computes from an instance in r to a query
	// instance (the band's comment in engine.go), so no slack is needed.
	near := s.metric.RectMinDist(r, s.qMBR)
	if near <= s.maxKey {
		return false
	}
	// Condition 2: k MBR dominators among the candidates put O outside
	// the band. First by radius: every hull instance q lies in qMBR, so for
	// the k candidates c inside farK, far(q,c) ≤ MaxDistRect(c, qMBR) ≤ farK
	// and near ≤ near(q,r); both steps hold gap by gap before the sum, and
	// rounding (the square root included) is monotone, so farK < near puts
	// far(q,c) < near(q,r): le with strictness at every q, k times over.
	// (+Inf off L2.)
	if near > s.farK {
		return true
	}
	count := 0
	for _, c := range s.band {
		if dom, _ := s.dominates(c.Object.MBR(), r); dom {
			count++
			if count >= s.k {
				return true
			}
		}
	}
	return false
}
