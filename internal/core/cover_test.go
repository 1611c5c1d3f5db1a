package core

import (
	"math"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// coverOps are the operators rung 7 serves: the ones with a U_Q ≠ V_Q side
// condition.
var coverOps = []Operator{SSD, SSSD, PSD}

// normalized builds an object whose probabilities are taken bit for bit.
func normalized(t *testing.T, id int, pts []geom.Point, probs []float64) *uncertain.Object {
	t.Helper()
	o, err := uncertain.FromNormalized(id, pts, probs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// coverVerdict runs Dominates(u, v) with every filter on and reports the
// verdict and whether rung 7 took it, failing the test when the verdict is
// not the unfiltered checker's. Where S-SD's mass rung took the check
// first, rung 7 is asked the pair itself.
func coverVerdict(t *testing.T, label string, m geom.Metric, op Operator, q, u, v *uncertain.Object) (dom, fired bool) {
	t.Helper()
	c := NewCheckerMetric(q, op, AllFilters, m)
	dom = c.Dominates(u, v)
	if want := NewCheckerMetric(q, op, FilterConfig{}, m).Dominates(u, v); dom != want {
		t.Fatalf("%s %s %v: Dominates = %v, unfiltered %v (%+v)", label, m.Name(), op, dom, want, c.Stats)
	}
	if c.Stats.CoverValidations > 1 {
		t.Fatalf("%s %s %v: %d cover validations for one check", label, m.Name(), op, c.Stats.CoverValidations)
	}
	if c.Stats.BucketDecisions == 1 {
		return dom, c.coverValidate(c.summaryOf(u), c.summaryOf(v))
	}
	return dom, c.Stats.CoverValidations == 1
}

// Rung 7 on the pairs at its edges, under S-SD, SS-SD and P-SD: each verdict
// is the unfiltered checker's, and each case states whether the rung took
// it. The witness must refuse every pair whose U_Q and V_Q distr.Equal could
// call equal — duplicates — and must change its answer exactly at its
// bound, which twins moved by 1e-10 and 1e-10 of mass moved outward clear.
func TestCoverValidationEdges(t *testing.T) {
	tri := uncertain.MustNew(0, []geom.Point{{0, 0}, {2, 0}, {1, 2}}, nil)
	origin := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	chain := chainedPoints()
	moved := make([]geom.Point, len(chain))
	for i, p := range chain {
		moved[i] = geom.Point{p[0] + 1e-10, p[1]}
	}
	weights := []float64{3, 1, 2, 1, 1, 4, 1, 2, 1, 1}
	none := map[Operator]bool{}
	all := map[Operator]bool{SSD: true, SSSD: true, PSD: true}
	for _, tc := range []struct {
		name    string
		metric  geom.Metric
		q, u, v *uncertain.Object
		dom     bool
		fires   map[Operator]bool
	}{
		{"duplicate points", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{5, 5}}, nil), uncertain.MustNew(2, []geom.Point{{5, 5}}, nil),
			false, none},
		{"duplicate chains", geom.Euclidean, tri,
			uncertain.MustNew(1, chain, weights), uncertain.MustNew(2, chain, weights),
			false, none},
		{"twin moved by 1e-10", geom.Euclidean, tri,
			uncertain.MustNew(1, chain, nil), uncertain.MustNew(2, moved, nil),
			true, map[Operator]bool{PSD: true}},
		{"1e-10 of mass moved outward", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{5, 5}}, nil),
			normalized(t, 2, []geom.Point{{5, 5}, {6, 6}}, []float64{1 - 1e-10, 1e-10}),
			true, all},
		{"zero-probability instance nearest the query", geom.Euclidean, tri,
			uncertain.MustNew(1, []geom.Point{{3, 3}}, nil),
			uncertain.MustNew(2, []geom.Point{{0.5, 0.5}, {6, 6}, {7, 6}}, []float64{0, 1, 1}),
			true, all},
		{"Manhattan", geom.Manhattan, uncertain.MustNew(0, []geom.Point{{0, 0}, {1, 0}, {0, 1}}, nil),
			uncertain.MustNew(1, []geom.Point{{3, 3}, {4, 4}}, nil),
			uncertain.MustNew(2, []geom.Point{{10, 1}, {1, 10}}, nil),
			true, all},
		{"|Q| = 1", geom.Euclidean, origin,
			uncertain.MustNew(1, []geom.Point{{3, 0}, {0, 4}}, nil),
			uncertain.MustNew(2, []geom.Point{{5, 0}, {0, 3.5}}, nil),
			true, map[Operator]bool{PSD: true}},
	} {
		for _, op := range coverOps {
			dom, fired := coverVerdict(t, tc.name, tc.metric, op, tc.q, tc.u, tc.v)
			if dom != tc.dom || fired != tc.fires[op] {
				t.Errorf("%s %v: Dominates = %v, rung 7 fired %v; want %v, %v", tc.name, op, dom, fired, tc.dom, tc.fires[op])
			}
		}
	}

	// The witness at its bound: a mean gap equal to it refuses, one ulp above
	// it validates.
	for _, n := range []int{2, 3, 80, 8192} {
		su := &objCache{runs: make([]distr.Pair, n/2), stat: distr.Stat{Max: 7}}
		sv := &objCache{runs: make([]distr.Pair, n-n/2), stat: distr.Stat{Max: 9}}
		bound := distr.MeanBound(n, 9)
		c := NewChecker(origin, SSD, AllFilters)
		for _, tc := range []struct {
			gap  float64
			want bool
		}{{bound, false}, {math.Nextafter(bound, math.Inf(1)), true}} {
			sv.stat.Mean = tc.gap
			if got := c.meansApart(su, sv); got != tc.want {
				t.Errorf("N = %d: meansApart at gap %v (bound %v) = %v, want %v", n, tc.gap, bound, got, tc.want)
			}
		}
	}

	// The same crossing on objects: U a point at distance 1, V the same
	// point with mass p and one at distance 2 with 1−p, so the gap is 1−p.
	// Bisecting p over adjacent float64s finds the two sides; on both the
	// verdict stays the exact test's. (P-SD's match witness is the same
	// witness on these pairs: TestMatchWitnessEdges.)
	pair := func(p float64) (u, v *uncertain.Object) {
		return uncertain.MustNew(1, []geom.Point{{1, 0}}, nil),
			normalized(t, 2, []geom.Point{{1, 0}, {2, 0}}, []float64{p, 1 - p})
	}
	fires := func(op Operator, p float64) bool {
		u, v := pair(p)
		dom, fired := coverVerdict(t, "gap at the bound", geom.Euclidean, op, origin, u, v)
		if !dom {
			t.Fatalf("%v at p = %v: V's mass at distance 1 is short by more than MassBound(3), so U must dominate", op, p)
		}
		return fired
	}
	for _, op := range []Operator{SSD, SSSD} {
		lo, hi := math.Float64bits(0.5), math.Float64bits(1-0x1p-50)
		if !fires(op, 0.5) || fires(op, 1-0x1p-50) {
			t.Fatalf("%v: the bisection does not bracket the bound", op)
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; fires(op, math.Float64frombits(mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		c := NewChecker(origin, op, AllFilters)
		u, v := pair(math.Float64frombits(lo))
		gapLo := c.summaryOf(v).stat.Mean - c.summaryOf(u).stat.Mean
		c = NewChecker(origin, op, AllFilters)
		u, v = pair(math.Float64frombits(hi))
		gapHi := c.summaryOf(v).stat.Mean - c.summaryOf(u).stat.Mean
		// Three atoms: one of U, two of V; values in [0, 2].
		if bound := distr.MeanBound(3, 2); !(gapHi <= bound && bound < gapLo) {
			t.Errorf("%v: the rung changes its answer between gaps %v and %v, not at its bound %v", op, gapHi, gapLo, bound)
		}
	}
}
