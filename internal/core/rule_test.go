package core

import (
	"math"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// The comparison rule's edges (distr's package comment): every filter
// configuration gives the unfiltered verdict on each pair below, both ways
// round, for all five operators under L2 and L1 — AllFilters, FilterConfig{}
// and AllFilters with each single filter off. Where a row states verdicts,
// they are the exact definitions' reading and every configuration must
// reach them.
func TestFilterConfigsAgreeAtTheRule(t *testing.T) {
	cfgs := []FilterConfig{AllFilters, AllFilters, AllFilters}
	cfgs[1].StatPruning = false
	cfgs[2].Geometric = false

	origin := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	tri := uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}, {0, 10}}, nil)
	quad := uncertain.MustNew(0, []geom.Point{{0, 0}, {200, 0}, {100, 200}, {54.20342084195679, 54.78224869580793}}, nil)
	pts := func(ps ...float64) []geom.Point {
		out := make([]geom.Point, len(ps)/2)
		for i := range out {
			out[i] = geom.Point{ps[2*i], ps[2*i+1]}
		}
		return out
	}
	obj := func(id int, ps []geom.Point, probs ...float64) *uncertain.Object {
		if probs == nil {
			return uncertain.MustNew(id, ps, nil)
		}
		return normalized(t, id, ps, probs)
	}
	// The deficit rows: U = {1: a, 3: 1−a}, V = {2: ½, 4: ½} on a line
	// through the query point, so that V's mass within 2 exceeds U's by
	// ½ − a, with nothing rounded: exactly 2⁻⁵⁰, the float rule's old
	// tolerance for four atoms, and one ulp of a more. The integer masses
	// see both deficits.
	atBound := 0.5 - 0x1p-50
	pastBound := math.Nextafter(atBound, 0)
	next := math.Nextafter(1, 2)
	// A copy renormalised by New: its probabilities move by an ulp each,
	// by different shares of their size, and V's masses put more of it
	// farther out, so the copy dominates.
	orig := uncertain.MustNew(2, pts(1, 0, 2, 0, 3, 0), []float64{9, 6, 3})
	copied := uncertain.MustNew(1, orig.Points(), orig.Probs())
	bisector, bisectorPairs := bisectorQuery(), bisectorPairs()
	bisectorPoints, bisectorWitness, bisectorFlow := bisectorPairs[0], bisectorPairs[1], bisectorPairs[2]

	for _, row := range []struct {
		name string
		q    *uncertain.Object
		u, v *uncertain.Object
		// want[op] is U's verdict over V where the row states it.
		want map[Operator]bool
	}{
		{"counterexample A: U_Q's CDF 5e-10 below V_Q's", origin,
			obj(1, pts(1-1e-7, 0, 1, 0, 1000, 0), 0.3, 0.2-5e-10, 0.5+5e-10),
			obj(2, pts(0, 1, 0, 1000), 0.5, 0.5),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false}},
		{"counterexample B: U's nearest 1e-11 farther than V's at (0, 0)", tri,
			obj(1, pts(2+1e-11, 2, 3, 3)), obj(2, pts(2, 2, 30, 30)),
			map[Operator]bool{PSD: false}},
		// B with U's second instance at (1, 2.5): the statistics and the
		// scans hold, so only ⪯Q itself — rungs 4a, 7 and 8 — sees that
		// nothing partners V's (2, 2).
		{"counterexample B past the statistics", tri,
			obj(1, pts(2+1e-11, 2, 1, 2.5)), obj(2, pts(2, 2, 30, 30)),
			map[Operator]bool{PSD: false}},
		{"mass deficit at the bound", origin,
			obj(1, pts(1, 0, 3, 0), atBound, 1-atBound), obj(2, pts(2, 0, 4, 0), 0.5, 0.5),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		{"mass deficit one ulp past the bound", origin,
			obj(1, pts(1, 0, 3, 0), pastBound, 1-atBound), obj(2, pts(2, 0, 4, 0), 0.5, 0.5),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		{"mass deficit of 1e-10", origin,
			obj(1, pts(1, 0, 3, 0), 0.5-1e-10, 0.5+1e-10), obj(2, pts(2, 0, 4, 0), 0.5, 0.5),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		// V is U with 1e-12 of mass moved from the near instance to the far
		// one: U_Q ≤st V_Q and U_Q ≠ V_Q.
		{"mass moved 1e-12 outward", origin,
			obj(1, pts(1, 0, 2, 0), 0.5, 0.5), obj(2, pts(1, 0, 2, 0), 0.5-1e-12, 0.5+1e-12),
			map[Operator]bool{SSD: true, SSSD: true, PSD: true, FSD: false}},
		{"distance nudged by one ulp", origin,
			obj(1, pts(1, 0)), obj(2, pts(next, 0)),
			map[Operator]bool{SSD: true, SSSD: true, PSD: true, FSD: true}},
		{"instance nudged by one ulp, triangle query", tri,
			obj(1, pts(5, 5, 20, 21)), obj(2, pts(math.Nextafter(5, 6), 5, 20, 21)), nil},
		{"light instance of V with no partner", tri,
			obj(1, pts(20, 20)), obj(2, pts(21, 21, 2, 2), 1, 0x1p-56),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		{"light instance of U with no partner", tri,
			obj(1, pts(20, 20, 40, 40), 1, 0x1p-56), obj(2, pts(21, 21)),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		// 2⁻⁷⁰ is below the unit 2⁻⁶⁰, and still one unit of mass.
		{"light instance of U past the unit", tri,
			obj(1, pts(20, 20, 40, 40), 1, 0x1p-70), obj(2, pts(21, 21)),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false}},
		{"zero-probability nearest instance", tri,
			obj(1, pts(3, 3)), uncertain.MustNew(2, pts(0.5, 0.5, 16, 16, 17, 16), []float64{0, 1, 1}),
			map[Operator]bool{SSD: true, SSSD: true, PSD: true, FSD: true}},
		{"coincident instances", tri,
			uncertain.MustNew(1, pts(5, 5, 5, 5, 8, 8), []float64{1, 2, 1}),
			uncertain.MustNew(2, pts(5, 5, 9, 9), []float64{3, 1}),
			map[Operator]bool{SSD: true, SSSD: true, PSD: true, FSD: false}},
		// Under L2, F+SD's per-dimension sums accept U over V, but U's
		// distance to the origin rounds one ulp above V's: the key order
		// (Checker.sd) refutes.
		{"F+SD over keys an ulp apart", origin,
			obj(1, pts(6.227283173637045, 3.696928436398219)), obj(2, pts(2.368225468054852, 6.843817919916428)),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false, FPlusSD: false}},
		// V is U moved by an ulp in each coordinate, and every distance the
		// summary takes rounds to U's, so U_Q = V_Q. Under L2 the MBR test's
		// squares differ at a query instance; their roots do not.
		{"twin whose squares differ and distances do not", quad,
			obj(1, pts(57.136106947917895, 57.57760358006369)), obj(2, pts(57.13610694791789, 57.577603580063695)),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false}},
		// U and V mirror each other through the query's one instance of
		// mass, and only its instance of no mass tells them apart: U_Q =
		// V_Q.
		{"strict only at a query instance of no mass", uncertain.MustNew(0, pts(0, 0, 10, 0), []float64{1, 0}),
			obj(1, pts(1, 0)), obj(2, pts(-1, 0)),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false, FPlusSD: false}},
		{"coincident objects", tri,
			uncertain.MustNew(1, pts(5, 5, 8, 8), []float64{3, 1}),
			uncertain.MustNew(2, pts(8, 8, 5, 5), []float64{1, 3}),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false}},
		// The same instances in another order, with weights whose
		// normalisation rounds: each instance keeps its probability's bits,
		// so the masses are equal and U_Q = V_Q.
		{"coincident objects in thirds", tri,
			uncertain.MustNew(1, pts(5, 5, 8, 8, 9, 7), []float64{1, 1, 1}),
			uncertain.MustNew(2, pts(9, 7, 5, 5, 8, 8), []float64{1, 1, 1}),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false, FPlusSD: false}},
		{"coincident objects in thirds, the other way", tri,
			uncertain.MustNew(1, pts(9, 7, 5, 5, 8, 8), []float64{1, 1, 1}),
			uncertain.MustNew(2, pts(5, 5, 8, 8, 9, 7), []float64{1, 1, 1}),
			map[Operator]bool{SSD: false, SSSD: false, PSD: false, FSD: false, FPlusSD: false}},
		{"renormalised copy", origin, copied, orig,
			map[Operator]bool{SSD: true, SSSD: true, PSD: true, FSD: false}},
		// A query instance inside the triangle of the other three orders
		// the two points' distances the other way by an ulp
		// (bisector_test.go): ranged over the hull alone, the rows admitted
		// u ⪯Q v.
		{"an interior query instance an ulp the other way", bisector, bisectorPoints[0], bisectorPoints[1],
			map[Operator]bool{SSSD: false, PSD: false}},
		// The same points with a second instance each: under AllFilters
		// the match witness validated the pair on the hull instances.
		{"an interior query instance against the match witness", bisector, bisectorWitness[0], bisectorWitness[1],
			map[Operator]bool{PSD: false}},
		// And with other second instances, where the hull-only transport
		// said "yes" without the witness.
		{"an interior query instance against the transport", bisector, bisectorFlow[0], bisectorFlow[1],
			map[Operator]bool{PSD: false}},
	} {
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			// The cover chain: a P-SD "yes" is an SS-SD "yes", and an SS-SD
			// "yes" an S-SD one.
			for _, p := range [][2]*uncertain.Object{{row.u, row.v}, {row.v, row.u}} {
				var yes [3]bool
				for i, op := range []Operator{PSD, SSSD, SSD} {
					yes[i] = NewCheckerMetric(row.q, op, FilterConfig{}, m).Dominates(p[0], p[1])
				}
				if yes[0] && !yes[1] || yes[1] && !yes[2] {
					t.Errorf("%s, %s: Dominates(%d, %d) under P-SD, SS-SD, S-SD = %v", row.name, m.Name(), p[0].ID(), p[1].ID(), yes)
				}
			}
			for _, op := range Operators {
				for _, p := range [][2]*uncertain.Object{{row.u, row.v}, {row.v, row.u}} {
					want := NewCheckerMetric(row.q, op, FilterConfig{}, m).Dominates(p[0], p[1])
					if stated, ok := row.want[op]; ok && p[0] == row.u && want != stated {
						t.Errorf("%s, %s %v: the unfiltered verdict is %v, the exact reading %v", row.name, m.Name(), op, want, stated)
					}
					for _, cfg := range cfgs {
						if got := NewCheckerMetric(row.q, op, cfg, m).Dominates(p[0], p[1]); got != want {
							t.Errorf("%s, %s %v %+v: Dominates(%d, %d) = %v, unfiltered %v", row.name, m.Name(), op, cfg, p[0].ID(), p[1].ID(), got, want)
						}
					}
				}
			}
		}
	}
}

// Two objects told apart only at a query instance of no mass have U_Q =
// V_Q, so neither dominates the other, and every operator's search and its
// brute force return both, filtered and not, under L2 and L1.
func TestNoMassInstanceKeepsBoth(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}}, []float64{1, 0})
	objs := []*uncertain.Object{
		uncertain.MustNew(1, []geom.Point{{1, 0}}, nil),
		uncertain.MustNew(2, []geom.Point{{-1, 0}}, nil),
	}
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
		for _, op := range Operators {
			for _, cfg := range []FilterConfig{AllFilters, {}} {
				got := idsOf(searchK(idx, q, op, 1, SearchOptions{Filters: cfg, Metric: m}).Objects())
				if len(got) != 2 {
					t.Errorf("%s %v %+v: the search returns %v, want both", m.Name(), op, cfg, got)
				}
				if m == geom.Euclidean {
					if bf := idsOf(BruteForceK(objs, q, op, 1, cfg)); len(bf) != 2 {
						t.Errorf("%v %+v: BruteForceK returns %v, want both", op, cfg, bf)
					}
				}
			}
		}
	}
}
