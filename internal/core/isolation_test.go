package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// The pair shapes of TestIsolationRungSound, drawn like matchPair's: a query
// in [−3, 3]^d and U in [15, 25]^d, so that moving an instance up in any
// coordinate moves it away from every query instance under L1 and L2 alike.
const (
	isoPushed     = iota // V is U with every instance moved up by 0–1 a coordinate
	isoCloud             // V an independent cloud, a little further out
	isoPulled            // pushed, with one positive-mass instance of V pulled to [5, 8]^d
	isoDuplicate         // V is U
	isoCoincident        // pushed, with the first and last instances of both coincident
	isoThreshold         // U is V with each instance moved up in x as far as the pair test admits
	isoKinds
)

var isoNames = [isoKinds]string{"pushed", "cloud", "pulled", "duplicate", "coincident", "threshold"}

// Probability modes: uniform, skewed, zeros, and tiny — skewed, with V given
// one more instance of mass 2⁻⁵⁶ in [5, 8]^d, below any MassBound, which no
// instance of U can partner.
const (
	probsUniform = iota
	probsSkewed
	probsZeros
	probsTiny
	probModes
)

// isoPair draws one pair of the grid. c is a checker for the query the pair
// is drawn for: the threshold shape places U by its pair test.
func isoPair(rng *rand.Rand, c *Checker, kind, dim, m, probs int) (u, v *uncertain.Object) {
	box := func(n int, lo, span float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for k := range pts[i] {
				pts[i][k] = lo + rng.Float64()*span
			}
		}
		return pts
	}
	ws := make([]float64, m)
	for i := range ws {
		switch probs {
		case probsUniform:
			ws[i] = 1
		case probsZeros:
			if i == 0 || rng.Intn(4) != 0 {
				ws[i] = 0.5 + rng.Float64()
			}
		default:
			ws[i] = math.Exp(4 * rng.Float64())
		}
	}
	up := box(m, 15, 10)
	if kind == isoCoincident && m > 1 {
		up[m-1] = up[0].Clone()
	}
	vp := make([]geom.Point, m)
	for i, p := range up {
		vp[i] = p.Clone()
		if kind != isoDuplicate && kind != isoThreshold {
			for k := range vp[i] {
				vp[i][k] += rng.Float64()
			}
		}
	}
	switch kind {
	case isoCloud:
		vp = box(m, 16, 10)
	case isoPulled:
		pos := rng.Intn(m)
		for ws[pos] == 0 {
			pos = (pos + 1) % m
		}
		vp[pos] = box(1, 5, 3)[0]
	case isoThreshold:
		for i := range up {
			up[i] = farthestAdmitted(c, vp[i])
		}
	}
	u, v = uncertain.MustNew(1, up, ws), uncertain.MustNew(2, vp, ws)
	if probs == probsTiny {
		var err error
		v, err = uncertain.FromNormalized(2, append(vp, box(1, 5, 3)[0]), append(v.Probs(), 0x1p-56))
		if err != nil {
			panic(err)
		}
	}
	return u, v
}

// farthestAdmitted returns v moved up in its first coordinate to the last
// float the reference pair test (instLE) admits against v: du ≤ dv at every
// hull instance, with equality in floating point at the tightest one. Every
// distance grows with that coordinate, so the floats it admits are an
// interval, bisected here on their bit patterns.
func farthestAdmitted(c *Checker, v geom.Point) geom.Point {
	dv := pointHullDists(c, v)
	u := v.Clone()
	admitted := func(x float64) bool {
		u[0] = x
		return instLE(pointHullDists(c, u), dv)
	}
	lo, hi := math.Float64bits(v[0]), math.Float64bits(v[0]+1)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; admitted(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	u[0] = math.Float64frombits(lo)
	return u
}

// pointHullDists is hullDists for one point: the floats the summary holds.
func pointHullDists(c *Checker, p geom.Point) []float64 {
	d := make([]float64, len(c.hullPts))
	for t, q := range c.hullPts {
		d[t] = c.metric.Dist(p, q)
	}
	return d
}

// Rung 4a is sound: over 2-D and 3-D, L2 and L1, |Q| of 1, 3 and 8, m from 1
// to 70 (rows one and two words wide), the probability modes and the pair
// shapes above, every pair it refutes is refuted by the unfiltered checker
// and by the max-flow oracle over every query instance. It refutes every
// pulled pair and every pair of the tiny mode (an instance without a
// partner, however light), and no other pair of the shapes where every
// instance has one. The threshold shape puts each pair exactly on the pair
// test's bound, where only exact comparisons keep the sums ordered.
// (Negative probes, each verified to fail this test: p > MassBound for
// p > 0 in the rung, on the tiny mode; d >= dv for d > dv in admits, on
// the threshold pairs.)
func TestIsolationRungSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4201))
	var drawn, fired [isoKinds]int
	tinyDrawn, tinyFired := 0, 0
	for _, dim := range []int{2, 3} {
		for _, metric := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, nq := range []int{1, 3, 8} {
				for _, m := range []int{1, 2, 3, 5, 9, 17, 33, 64, 65, 70} {
					for probs := 0; probs < probModes; probs++ {
						q := randObject(rng, 0, dim, nq, make(geom.Point, dim), 3)
						for kind := 0; kind < isoKinds; kind++ {
							c := NewCheckerMetric(q, PSD, AllFilters, metric)
							u, v := isoPair(rng, c, kind, dim, m, probs)
							su, sv := c.summaryOf(u), c.summaryOf(v)
							before := c.Stats.InstanceComparisons
							refuted := c.isolated(su, sv)
							tag := fmt.Sprintf("%s d=%d %s |Q|=%d m=%d probs=%d", isoNames[kind], dim, metric.Name(), nq, m, probs)
							if probs == probsTiny {
								tinyDrawn++
								if refuted {
									tinyFired++
								}
							} else {
								drawn[kind]++
								if refuted {
									fired[kind]++
								}
							}
							if !refuted {
								// Each instance of positive mass took at least one
								// comparison to find its partner.
								if n := heavy(u) + heavy(v); c.Stats.InstanceComparisons-before < int64(n) {
									t.Fatalf("%s: %d comparisons counted for %d partners found", tag, c.Stats.InstanceComparisons-before, n)
								}
								continue
							}
							if oraclePSDMatchMetric(u, v, q, metric) {
								t.Fatalf("%s: refuted, but the max-flow oracle ships the mass", tag)
							}
							if NewCheckerMetric(q, PSD, FilterConfig{}, metric).Dominates(u, v) {
								t.Fatalf("%s: refuted, but the unfiltered checker says yes", tag)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("refuted per shape: %v of %v; tiny mode %d of %d", fired, drawn, tinyFired, tinyDrawn)
	if fired[isoPulled] != drawn[isoPulled] || tinyFired != tinyDrawn {
		t.Fatalf("refuted %d of %d pulled pairs and %d of %d tiny-mode pairs, each with an instance no instance of the other side partners",
			fired[isoPulled], drawn[isoPulled], tinyFired, tinyDrawn)
	}
	for _, kind := range []int{isoPushed, isoDuplicate, isoCoincident, isoThreshold} {
		if fired[kind] != 0 {
			t.Fatalf("%s: %d refutations of pairs where every instance has a partner", isoNames[kind], fired[kind])
		}
	}
	var all, hit int
	for k := range drawn {
		all, hit = all+drawn[k], hit+fired[k]
	}
	if hit*8 < all {
		t.Fatalf("the rung refuted %d of %d pairs, want at least an eighth", hit, all)
	}
}

// heavy counts o's instances of positive mass.
func heavy(o *uncertain.Object) (n int) {
	for _, p := range o.Probs() {
		if p > 0 {
			n++
		}
	}
	return n
}

// Rung 4a at its edges, each verdict the unfiltered checker's.
func TestIsolationRungEdges(t *testing.T) {
	edge := func(label string, m geom.Metric, q, u, v *uncertain.Object, refutes bool) {
		t.Helper()
		c := NewCheckerMetric(q, PSD, AllFilters, m)
		if got := c.isolated(c.summaryOf(u), c.summaryOf(v)); got != refutes {
			t.Errorf("%s: the rung refuted %v, want %v", label, got, refutes)
		}
		if got := NewCheckerMetric(q, PSD, FilterConfig{}, m).Dominates(u, v); got == refutes {
			t.Errorf("%s: the unfiltered checker says %v, want %v", label, got, !refutes)
		}
	}

	// du = dv + 5e-10 at every hull instance (L1, everything above and to
	// the right of Q): no instance of U is admitted with any of V.
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {1, 0}, {0, 1}}, nil)
	vp := []geom.Point{{20, 20}, {24, 17}, {17, 26}}
	up := make([]geom.Point, len(vp))
	for i, p := range vp {
		up[i] = geom.Point{p[0] + 5e-10, p[1]}
	}
	edge("5e-10 out", geom.Manhattan, q, uncertain.MustNew(1, up, nil), uncertain.MustNew(2, vp, nil), true)
	// The other way round: every instance of V has its copy, 5e-10 nearer
	// every hull instance, for a partner.
	edge("5e-10 in", geom.Manhattan, q, uncertain.MustNew(1, vp, nil), uncertain.MustNew(2, up, nil), false)

	// An instance of mass 5e-10 nearer the query than all of U: it has no
	// partner, and the transport leaves it unshipped, however light.
	u := uncertain.MustNew(1, []geom.Point{{20, 20}}, nil)
	v := normalized(t, 2, []geom.Point{{21, 21}, {2, 2}}, []float64{1 - 5e-10, 5e-10})
	edge("light isolated mass", geom.Euclidean, q, u, v, true)

	// Counterexample B of the agreement table: V's first instance lies
	// inside CH(Q), and U's first sits 1e-11 farther from (0, 0), so V's
	// first instance has no partner.
	q = uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}, {0, 10}}, nil)
	u = uncertain.MustNew(1, []geom.Point{{2 + 1e-11, 2}, {3, 3}}, nil)
	v = uncertain.MustNew(2, []geom.Point{{2, 2}, {30, 30}}, nil)
	edge("counterexample B", geom.Euclidean, q, u, v, true)
}
