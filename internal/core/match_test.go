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
	pairShort             // pushed, with U's masses summing to 0.9
	pairKinds
)

var pairNames = [pairKinds]string{"pushed", "cloud", "duplicate", "coincident", "nudged", "short"}

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
	v = uncertain.MustNew(2, vp, u.Probs())
	if kind == pairShort {
		short := make([]float64, m)
		for i, p := range u.Probs() {
			short[i] = 0.9 * p
		}
		o, err := uncertain.FromNormalized(1, up, short)
		if err != nil {
			panic(err)
		}
		u = o
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

// Rung 7's match witness is sound: over 2-D and 3-D, L2 and L1, |Q| of 1, 3
// and 8, m from 1 to 70 (rows one and two words wide), uniform, skewed and
// zero probabilities and the pair shapes above, every pair it validates is
// P-SD-dominated by the unfiltered checker and has an exact ⪯Q match under
// the max-flow oracle at every query instance with no tolerance at all —
// the walk compares with plain ≤, so it owes no eps. It fires on a fair
// share of the pushed copies. (Negative probes, each verified to fail this
// test: ≤ dv+eps in the walk's comparison, on the nudged pairs; no shipped
// mass check, on the short ones; no strictness or meansApart, on the
// duplicates.)
func TestMatchWitnessSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4101))
	var drawn, fired [pairKinds]int
	for _, dim := range []int{2, 3} {
		for _, metric := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, nq := range []int{1, 3, 8} {
				for _, m := range []int{1, 2, 3, 5, 9, 17, 33, 64, 65, 70} {
					for probs := 0; probs < 3; probs++ {
						q := randObject(rng, 0, dim, nq, make(geom.Point, dim), 3)
						for kind := 0; kind < pairKinds; kind++ {
							u, v := matchPair(rng, kind, dim, m, probs)
							c := NewCheckerMetric(q, PSD, AllFilters, metric)
							drawn[kind]++
							if !c.matchValidate(c.summaryOf(u), c.summaryOf(v)) {
								continue
							}
							fired[kind]++
							tag := fmt.Sprintf("%s d=%d %s |Q|=%d m=%d probs=%d", pairNames[kind], dim, metric.Name(), nq, m, probs)
							if !oraclePSDMatchMetric(u, v, q, 0, metric) {
								t.Fatalf("%s: validated, but no exact ⪯Q match ships the mass", tag)
							}
							if !NewCheckerMetric(q, PSD, FilterConfig{}, metric).Dominates(u, v) {
								t.Fatalf("%s: validated, but the unfiltered checker says no", tag)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("validated per shape: %v of %v", fired, drawn)
	if fired[pairPushed]*5 < drawn[pairPushed] {
		t.Fatalf("the witness validated %d of %d pushed copies, want at least a fifth", fired[pairPushed], drawn[pairPushed])
	}
	for _, kind := range []int{pairDuplicate, pairShort} {
		if fired[kind] != 0 {
			t.Fatalf("%s: %d validations of pairs the witness must refuse", pairNames[kind], fired[kind])
		}
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
	if !c.Dominates(u, v) || c.Stats.CoverValidations != 0 || c.Stats.FlowSolves != 1 || !oraclePSDMatch(u, v, q, 0) {
		t.Fatalf("crossing pair: want the transport's yes, got %+v", c.Stats)
	}

	// ROADMAP 4(b)'s tolerance counterexample: rungs 1–2 compare means within
	// an absolute eps, the exact tests allow eps of mass, so the ladder and
	// the unfiltered checker disagree on it. The walk must not take it: its
	// third tuple ships the last 5e-10 of V's first instance from (1000, 0).
	origin := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	u = normalized(t, 1, []geom.Point{{1 - 1e-7, 0}, {1, 0}, {1000, 0}}, []float64{0.3, 0.2 - 5e-10, 0.5 + 5e-10})
	v = normalized(t, 2, []geom.Point{{0, 1}, {0, 1000}}, []float64{0.5, 0.5})
	c = NewChecker(origin, PSD, AllFilters)
	if c.matchValidate(c.summaryOf(u), c.summaryOf(v)) {
		t.Fatal("tolerance counterexample: the walk validated a tuple with du > dv")
	}

	// The strict tuple either side of flowEps: U a point at distance 1, V the
	// same point and, with the moved mass, one at distance 2. The mean gap
	// stays below meansApart's bound, so only a strict tuple of more than
	// flowEps witnesses U_Q ≠ V_Q, and the verdict stays the exact test's.
	for _, tc := range []struct {
		moved float64
		fires bool
	}{{4e-9, true}, {1.5e-9, true}, {5e-10, false}, {1e-10, false}} {
		u := uncertain.MustNew(1, []geom.Point{{1, 0}}, nil)
		v := normalized(t, 2, []geom.Point{{1, 0}, {2, 0}}, []float64{1 - tc.moved, tc.moved})
		c := NewChecker(origin, PSD, AllFilters)
		if got := c.matchValidate(c.summaryOf(u), c.summaryOf(v)); got != tc.fires {
			t.Errorf("%v of mass moved out: the walk fired %v, want %v", tc.moved, got, tc.fires)
		}
		if got := NewChecker(origin, PSD, FilterConfig{}).Dominates(u, v); got != tc.fires {
			t.Errorf("%v of mass moved out: the unfiltered checker says %v, want %v", tc.moved, got, tc.fires)
		}
	}
}
