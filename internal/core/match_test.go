package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// The pair shapes of TestMatchWitnessSound. Each is drawn around a query in
// [−3, 3]^d with U in [15, 25]^d, so that moving an instance up in every
// coordinate moves it away from every query instance under L1 and L2 alike.
const (
	pairPushed     = iota // V is U with every instance moved up by 0–1 a coordinate
	pairCloud             // V an independent cloud, a little further out
	pairDuplicate         // V is U: U_Q = V_Q, never dominated
	pairCoincident        // pushed, with U's first and last instances coincident
	pairNudged            // pushed, but the copy of U's least-sum instance moved 1e-11 toward Q
	pairStray             // pushed, with a tenth of U's mass on an instance beyond all of V
	pairApart             // V a cloud beyond all of U: F-SD at every query instance
	pairTouching          // apart, V's first and last instances on U's far corner, which U holds
	pairKinds
)

var pairNames = [pairKinds]string{"pushed", "cloud", "duplicate", "coincident", "nudged", "stray", "apart", "touching"}

// matchPair draws one pair of the grid: m instances a side in dim
// dimensions, probabilities uniform (probs 0), skewed (1) or with zeros (2).
func matchPair(rng *rand.Rand, kind, dim, m, probs int) (u, v *uncertain.Object) {
	box := func(lo, span float64) []geom.Point {
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for k := range pts[i] {
				pts[i][k] = lo + rng.Float64()*span
			}
		}
		return pts
	}
	var ws []float64
	switch probs {
	case 1:
		ws = make([]float64, m)
		for i := range ws {
			ws[i] = math.Exp(4 * rng.Float64())
		}
	case 2:
		ws = make([]float64, m)
		for i := range ws {
			if i == 0 || rng.Intn(4) != 0 {
				ws[i] = 0.5 + rng.Float64()
			}
		}
	}
	up := box(15, 10)
	if kind == pairCoincident && m > 1 {
		up[m-1] = up[0].Clone()
	}
	if kind == pairApart || kind == pairTouching {
		corner := func(x float64) geom.Point {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = x
			}
			return p
		}
		vp := box(25, 10)
		if kind == pairTouching {
			up[0], vp[0], vp[m-1] = corner(25), corner(25), corner(25)
		}
		// Zero masses where they would break F-SD if they counted: U's
		// beyond all of V, V's nearer the query than all of U.
		for i, w := range ws {
			if w == 0 {
				up[i], vp[i] = corner(40), corner(0)
			}
		}
		return uncertain.MustNew(1, up, ws), uncertain.MustNew(2, vp, ws)
	}
	u = uncertain.MustNew(1, up, ws)
	if kind == pairCloud {
		return u, uncertain.MustNew(2, box(16, 10), ws)
	}
	vp := make([]geom.Point, m)
	for i, p := range up {
		vp[i] = p.Clone()
		if kind != pairDuplicate {
			for k := range vp[i] {
				vp[i][k] += rng.Float64()
			}
		}
	}
	if kind == pairNudged {
		least := 0
		for i, p := range up {
			if u.Prob(i) > 0 && (u.Prob(least) == 0 || sumAll(p) < sumAll(up[least])) {
				least = i
			}
		}
		for k := range vp[least] {
			vp[least][k] = up[least][k] - 1e-11
		}
	}
	// V takes U's probabilities bit for bit: a renormalised copy may stand
	// for other masses.
	v, err := uncertain.FromNormalized(2, vp, u.Probs())
	if err != nil {
		panic(err)
	}
	if kind == pairStray {
		stray := make([]float64, m+1)
		for i, p := range u.Probs() {
			stray[i] = 9 * p
		}
		stray[m] = 1
		far := make(geom.Point, dim)
		for k := range far {
			far[k] = 40
		}
		u = uncertain.MustNew(1, append(up, far), stray)
	}
	return u, v
}

// sumAll is a coordinate sum: U's instances all lie above the query in every
// coordinate, so a smaller one is nearer the query, roughly, under L1 and L2.
func sumAll(p geom.Point) (s float64) {
	for _, x := range p {
		s += x
	}
	return s
}

// eachMatchPair calls f on the grid of pairs the match witness is tested
// on: 2-D and 3-D, L2 and L1, |Q| of 1, 3 and 8, m from 1 to 70 (rows one
// and two words wide), uniform, skewed and zero probabilities, and every
// pair shape above.
func eachMatchPair(seed int64, f func(tag string, metric geom.Metric, kind int, q, u, v *uncertain.Object)) {
	rng := rand.New(rand.NewSource(seed))
	for _, dim := range []int{2, 3} {
		for _, metric := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, nq := range []int{1, 3, 8} {
				for _, m := range []int{1, 2, 3, 5, 9, 17, 33, 64, 65, 70} {
					for probs := 0; probs < 3; probs++ {
						q := randObject(rng, 0, dim, nq, make(geom.Point, dim), 3)
						for kind := 0; kind < pairKinds; kind++ {
							u, v := matchPair(rng, kind, dim, m, probs)
							f(fmt.Sprintf("%s d=%d %s |Q|=%d m=%d probs=%d", pairNames[kind], dim, metric.Name(), nq, m, probs), metric, kind, q, u, v)
						}
					}
				}
			}
		}
	}
}

// Rung 7's match witness is sound: on every pair of eachMatchPair it
// validates, the pair is P-SD-dominated by the unfiltered checker and has
// an exact ⪯Q match under the max-flow oracle at every query instance with
// no tolerance at all — the walk compares with plain ≤, so it owes no eps.
// It fires on a fair share of the pushed copies. (Negative probes, each
// verified to fail this test: ≤ dv+eps in the walk's comparison, on the
// nudged pairs; no strict tuple, on the duplicates.)
func TestMatchWitnessSound(t *testing.T) {
	var drawn, fired [pairKinds]int
	eachMatchPair(4101, func(tag string, metric geom.Metric, kind int, q, u, v *uncertain.Object) {
		c := NewCheckerMetric(q, PSD, AllFilters, metric)
		drawn[kind]++
		if !c.matchValidate(c.summaryOf(u), c.summaryOf(v)) {
			return
		}
		fired[kind]++
		if !oraclePSDMatchMetric(u, v, q, metric) {
			t.Fatalf("%s: validated, but no exact ⪯Q match ships the mass", tag)
		}
		if !NewCheckerMetric(q, PSD, FilterConfig{}, metric).Dominates(u, v) {
			t.Fatalf("%s: validated, but the unfiltered checker says no", tag)
		}
	})
	t.Logf("validated per shape: %v of %v", fired, drawn)
	if fired[pairPushed]*5 < drawn[pairPushed] {
		t.Fatalf("the witness validated %d of %d pushed copies, want at least a fifth", fired[pairPushed], drawn[pairPushed])
	}
	for _, kind := range []int{pairDuplicate, pairStray} {
		if fired[kind] != 0 {
			t.Fatalf("%s: %d validations of pairs the witness must refuse", pairNames[kind], fired[kind])
		}
	}
}

// normalized builds an object whose probabilities are taken bit for bit.
func normalized(t *testing.T, id int, pts []geom.Point, probs []float64) *uncertain.Object {
	t.Helper()
	o, err := uncertain.FromNormalized(id, pts, probs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// rowFSD reports F-SD at the query instances on two summaries, in
// rectPred's order: every positive-mass instance of U at least as close to
// each query instance as every one of V, read off the per-query-instance
// extremes, with fsd's witness at a query instance of positive mass — a
// strict row or a spread.
func rowFSD(c *Checker, su, sv *objCache) bool {
	strict := false
	for t, j := range c.posFirstIdx {
		a, b := su.perQStat[j], sv.perQStat[j]
		if a.Max > b.Min {
			return false
		}
		strict = strict || t < c.pos && (a.Max < b.Min || a.Min < a.Max || b.Min < b.Max)
	}
	return strict
}

// fsdFacts checks, on one pair under metric m, the two facts that leave
// the ladder no rung for F-SD at the query instances: wherever it holds,
// (a) P-SD's match witness validates the pair, and (b) under S-SD rung 1a
// decides it "yes" whenever the search has buckets — fixed by U's summary
// or by V's. Every operator, and the unfiltered checker, says U dominates
// V. held reports whether the premise held, binned how many of the two
// S-SD checks had buckets.
func fsdFacts(t *testing.T, tag string, m geom.Metric, q, u, v *uncertain.Object) (held bool, binned int) {
	t.Helper()
	c := NewCheckerMetric(q, PSD, AllFilters, m)
	su, sv := c.summaryOf(u), c.summaryOf(v)
	if !rowFSD(c, su, sv) {
		return false, 0
	}
	if !c.matchValidate(su, sv) {
		t.Fatalf("%s %s: F-SD, but the match witness refuses\nq=%v\nu=%v\nv=%v", tag, m.Name(), q, u, v)
	}
	c = NewCheckerMetric(q, PSD, AllFilters, m)
	if !c.Dominates(u, v) || c.Stats.CoverValidations != 1 {
		t.Fatalf("%s %s: P-SD's ladder did not validate the pair at rung 7: %+v", tag, m.Name(), c.Stats)
	}
	for _, first := range []*uncertain.Object{u, v} {
		c = NewCheckerMetric(q, SSD, AllFilters, m)
		c.summaryOf(first)
		if !c.Dominates(u, v) {
			t.Fatalf("%s %s: S-SD says no to a pair with F-SD", tag, m.Name())
		}
		if c.bk.N > 0 {
			binned++
			if c.Stats.BucketDecisions != 1 {
				t.Fatalf("%s %s: buckets fixed by object %d, but rung 1a left the pair to the exact scan: %+v", tag, m.Name(), first.ID(), c.Stats)
			}
		}
	}
	if !NewCheckerMetric(q, SSSD, AllFilters, m).Dominates(u, v) {
		t.Fatalf("%s %s: SS-SD says no to a pair with F-SD", tag, m.Name())
	}
	for _, op := range []Operator{SSD, SSSD, PSD} {
		if !NewCheckerMetric(q, op, FilterConfig{}, m).Dominates(u, v) {
			t.Fatalf("%s %s %v: the unfiltered checker says no to a pair with F-SD", tag, m.Name(), op)
		}
	}
	return true, binned
}

// Wherever F-SD holds, P-SD's
// match witness and S-SD's rung 1a decide the pair "yes" before the exact
// test, so the ladder needs no rung of its own for F-SD:
// fsdFacts holds on every pair of eachMatchPair, whose apart and touching
// shapes carry the premise — with co-located copies inside V and across
// the pair, and zero masses placed where they would break F-SD if they
// counted. (A negative probe, verified to fail this test: a match walk
// that ends one instance of U early.)
func TestFSDDecidedEarly(t *testing.T) {
	var drawn, held [pairKinds]int
	binned := 0
	eachMatchPair(6501, func(tag string, metric geom.Metric, kind int, q, u, v *uncertain.Object) {
		drawn[kind]++
		if ok, b := fsdFacts(t, tag, metric, q, u, v); ok {
			held[kind]++
			binned += b
		}
	})
	t.Logf("premise held per shape: %v of %v; rung 1a had buckets %d times", held, drawn, binned)
	if held[pairApart] != drawn[pairApart] || held[pairTouching]*4 < drawn[pairTouching]*3 || binned < held[pairApart] {
		t.Fatalf("the premise held on %d of %d apart and %d of %d touching pairs, rung 1a had buckets %d times",
			held[pairApart], drawn[pairApart], held[pairTouching], drawn[pairTouching], binned)
	}
}

// The witness at its edges, each against the full ladder.
func TestMatchWitnessEdges(t *testing.T) {
	// A crossing pair: u1 ⪯Q v2 and u2 ⪯Q v1 and no other tuple, while the
	// order of summed distance pairs u1 with v1. The walk stays silent and
	// the transport finds the match.
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{1, 1}, {9, 1.5}}, nil)
	v := uncertain.MustNew(2, []geom.Point{{9, 3}, {1, 3.2}}, nil)
	c := NewChecker(q, PSD, AllFilters)
	if c.matchValidate(c.summaryOf(u), c.summaryOf(v)) {
		t.Fatal("crossing pair: the walk validated a pair whose quantile match crosses")
	}
	c = NewChecker(q, PSD, AllFilters)
	if !c.Dominates(u, v) || c.Stats.CoverValidations != 0 || c.Stats.FlowSolves != 1 || !oraclePSDMatch(u, v, q) {
		t.Fatalf("crossing pair: want the transport's yes, got %+v", c.Stats)
	}

	// Counterexample A of the agreement table (TestFilterConfigsAgreeAtTheRule):
	// the walk must not take it, since its third tuple ships the last 5e-10
	// of V's first instance from (1000, 0).
	origin := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	u = normalized(t, 1, []geom.Point{{1 - 1e-7, 0}, {1, 0}, {1000, 0}}, []float64{0.3, 0.2 - 5e-10, 0.5 + 5e-10})
	v = normalized(t, 2, []geom.Point{{0, 1}, {0, 1000}}, []float64{0.5, 0.5})
	c = NewChecker(origin, PSD, AllFilters)
	if c.matchValidate(c.summaryOf(u), c.summaryOf(v)) {
		t.Fatal("tolerance counterexample: the walk validated a tuple with du > dv")
	}

	// The witness on mass moved out: U a point at distance 1, V the same
	// point and, with the moved mass, one at distance 2. The walk ships
	// everything, and its tuple to V's second instance is strictly nearer
	// wherever that instance has mass, however little: 4e-16 is 461 units
	// of 2⁻⁶⁰. Without any, U_Q = V_Q.
	for _, tc := range []struct {
		moved      float64
		fires, dom bool
	}{{1e-10, true, true}, {1e-14, true, true}, {4e-16, true, true}, {0, false, false}} {
		u := uncertain.MustNew(1, []geom.Point{{1, 0}}, nil)
		v := normalized(t, 2, []geom.Point{{1, 0}, {2, 0}}, []float64{1 - tc.moved, tc.moved})
		c := NewChecker(origin, PSD, AllFilters)
		if got := c.matchValidate(c.summaryOf(u), c.summaryOf(v)); got != tc.fires {
			t.Errorf("%v of mass moved out: the walk fired %v, want %v", tc.moved, got, tc.fires)
		}
		for _, cfg := range []FilterConfig{AllFilters, {}} {
			if got := NewChecker(origin, PSD, cfg).Dominates(u, v); got != tc.dom {
				t.Errorf("%v of mass moved out, %+v: Dominates = %v, want %v", tc.moved, cfg, got, tc.dom)
			}
		}
	}

	// Totals off one: one instance each, U's at distance 1 and V's at 2,
	// with probabilities an ulp or two from one. Each stands for all of its
	// object's mass, so the walk ships everything and nothing is left over.
	for _, tc := range []struct {
		pu, pv float64
		fires  bool
	}{{1 + 0x1p-52, 1, true}, {1 + 0x1p-52, 1 - 0x1p-52, true}} {
		u, err := uncertain.FromSlabs(1, 2, []float64{1, 0}, []float64{tc.pu})
		if err != nil {
			t.Fatal(err)
		}
		v, err := uncertain.FromSlabs(2, 2, []float64{2, 0}, []float64{tc.pv})
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(origin, PSD, AllFilters)
		if got := c.matchValidate(c.summaryOf(u), c.summaryOf(v)); got != tc.fires {
			t.Errorf("%v left over: the walk fired %v, want %v", tc.pu-tc.pv, got, tc.fires)
		}
		for _, cfg := range []FilterConfig{AllFilters, {}} {
			if !NewChecker(origin, PSD, cfg).Dominates(u, v) {
				t.Errorf("%v left over, %+v: U does not dominate V", tc.pu-tc.pv, cfg)
			}
		}
	}
}

// Rung 7 on the pairs at its edges, under S-SD, SS-SD and P-SD: each
// verdict is the unfiltered checker's, the match witness validates exactly
// the dominated pairs under P-SD and is asked by no other operator, and the
// pairs with F-SD satisfy fsdFacts. The witness must refuse
// every pair whose U_Q equals V_Q — duplicates — and take twins moved by
// 1e-10 and 1e-10 of mass moved outward.
func TestCoverValidationEdges(t *testing.T) {
	origin := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	tri := uncertain.MustNew(0, []geom.Point{{0, 0}, {2, 0}, {1, 2}}, nil)
	chain := chainedPoints()
	moved := make([]geom.Point, len(chain))
	for i, p := range chain {
		moved[i] = geom.Point{p[0] + 1e-10, p[1]}
	}
	weights := []float64{3, 1, 2, 1, 1, 4, 1, 2, 1, 1}
	for _, tc := range []struct {
		name     string
		metric   geom.Metric
		q, u, v  *uncertain.Object
		dom, fsd bool
	}{
		{"duplicate points", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{5, 5}}, nil), uncertain.MustNew(2, []geom.Point{{5, 5}}, nil),
			false, false},
		{"duplicate chains", geom.Euclidean, tri,
			uncertain.MustNew(1, chain, weights), uncertain.MustNew(2, chain, weights),
			false, false},
		{"twin moved by 1e-10", geom.Euclidean, tri,
			uncertain.MustNew(1, chain, nil), uncertain.MustNew(2, moved, nil),
			true, false},
		{"1e-10 of mass moved outward", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{5, 5}}, nil),
			normalized(t, 2, []geom.Point{{5, 5}, {6, 6}}, []float64{1 - 1e-10, 1e-10}),
			true, true},
		{"zero-probability instance nearest the query", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{3, 3}}, nil),
			uncertain.MustNew(2, []geom.Point{{0.5, 0.5}, {6, 6}, {7, 6}}, []float64{0, 1, 1}),
			true, true},
		{"Manhattan", geom.Manhattan, uncertain.MustNew(0, []geom.Point{{0, 0}, {1, 0}, {0, 1}}, nil),
			uncertain.MustNew(1, []geom.Point{{3, 3}, {4, 4}}, nil),
			uncertain.MustNew(2, []geom.Point{{10, 1}, {1, 10}}, nil),
			true, true},
		{"|Q| = 1", geom.Euclidean, origin,
			uncertain.MustNew(1, []geom.Point{{3, 0}, {0, 4}}, nil),
			uncertain.MustNew(2, []geom.Point{{5, 0}, {0, 3.5}}, nil),
			true, false},
	} {
		for _, op := range []Operator{SSD, SSSD, PSD} {
			c := NewCheckerMetric(tc.q, op, AllFilters, tc.metric)
			dom := c.Dominates(tc.u, tc.v)
			if want := NewCheckerMetric(tc.q, op, FilterConfig{}, tc.metric).Dominates(tc.u, tc.v); dom != want || dom != tc.dom {
				t.Errorf("%s %v: Dominates = %v, unfiltered %v, want %v", tc.name, op, dom, want, tc.dom)
			}
			if fired := c.Stats.CoverValidations == 1; fired != (op == PSD && tc.dom) {
				t.Errorf("%s %v: the match witness fired %v (%+v)", tc.name, op, fired, c.Stats)
			}
		}
		if held, _ := fsdFacts(t, tc.name, tc.metric, tc.q, tc.u, tc.v); held != tc.fsd {
			t.Errorf("%s: F-SD %v, want %v", tc.name, held, tc.fsd)
		}
	}
}
