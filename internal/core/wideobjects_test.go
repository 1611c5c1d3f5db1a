package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/maxflow"
	"spatialdom/internal/uncertain"
)

// oraclePSDMatch is an independent implementation of the Theorem 12
// feasibility test: distances recomputed from the points, a general
// max-flow network, no filters.
func oraclePSDMatch(u, v, q *uncertain.Object) bool {
	return oraclePSDMatchMetric(u, v, q, geom.Euclidean)
}

// oraclePSDMatchMetric is oraclePSDMatch under metric m, at every query
// instance (no hull reduction).
func oraclePSDMatchMetric(u, v, q *uncertain.Object, m geom.Metric) bool {
	qpts := q.Points()
	le := func(a, b geom.Point) bool {
		for _, qp := range qpts {
			if m.Dist(a, qp) > m.Dist(b, qp) {
				return false
			}
		}
		return true
	}
	nu, nv := u.Len(), v.Len()
	// Hall's condition on single instances, which masses below the
	// network's Eps would slip past: an instance of positive mass without a
	// partner of positive mass refutes.
	for i := 0; i < nu; i++ {
		found := u.Prob(i) == 0
		for j := 0; j < nv && !found; j++ {
			found = v.Prob(j) > 0 && le(u.Instance(i), v.Instance(j))
		}
		if !found {
			return false
		}
	}
	for j := 0; j < nv; j++ {
		found := v.Prob(j) == 0
		for i := 0; i < nu && !found; i++ {
			found = u.Prob(i) > 0 && le(u.Instance(i), v.Instance(j))
		}
		if !found {
			return false
		}
	}
	g := maxflow.NewNetwork(nu + nv + 2)
	s, t := 0, nu+nv+1
	for i := 0; i < nu; i++ {
		g.AddEdge(s, 1+i, u.Prob(i))
	}
	for j := 0; j < nv; j++ {
		g.AddEdge(1+nu+j, t, v.Prob(j))
	}
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			if le(u.Instance(i), v.Instance(j)) {
				g.AddEdge(1+i, 1+nu+j, math.Inf(1))
			}
		}
	}
	return g.MaxFlow(s, t) >= 1-1e-12
}

// Wide objects (48–77 instances a side, rows one and two words wide) get
// the exact test's verdict from the independent max-flow oracle.
func TestPSDWideObjectsMatchFlowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	checkedTrue, checkedFalse := 0, 0
	for iter := 0; iter < 40; iter++ {
		m := 48 + rng.Intn(30)
		q := randObject(rng, 0, 2, 2+rng.Intn(3), randCenter(rng, 2, 20), 2)
		base := randCenter(rng, 2, 20)
		u := randObject(rng, 1, 2, m, base, 3)
		off := base.Clone()
		off[0] += rng.Float64() * 5
		v := randObject(rng, 2, 2, m, off, 3)

		// Disable filters so the exact network path always runs.
		c := NewChecker(q, PSD, FilterConfig{})
		got := c.Dominates(u, v)
		matchable := oraclePSDMatch(u, v, q)
		// P-SD = matchable AND U_Q != V_Q; random float data never ties.
		if got != matchable {
			t.Fatalf("iter %d (m=%d): checker %v, oracle %v", iter, m, got, matchable)
		}
		if got {
			checkedTrue++
		} else {
			checkedFalse++
		}
	}
	if checkedTrue == 0 || checkedFalse == 0 {
		t.Fatalf("one-sided exercise: %d true, %d false", checkedTrue, checkedFalse)
	}
}

// widePair returns two objects of m instances each around center, the second
// the first with every instance pushed a little further from the query. Far
// enough from the query the identity is then a full ⪯Q match, but the MBRs
// and the local-tree nodes overlap, so no rung before the exact test can
// decide P-SD(u, v): with m > 64 that is the exact test writing rows more
// than one word wide.
//
// The copy crosses the identity in the order of summed distance to the hull
// query instances, the order P-SD's match witness (rung 7) walks, so that
// rung cannot decide the pair either. U's nearest instance gets a twin,
// turned about the query's centre until the two are ⪯Q-incomparable; the
// second of them (in that order) is pushed by a hair, and every instance U
// puts before it past it. The walk's first tuple is then U's first instance
// against V's first, the hair-pushed twin, which the first is not ⪯Q.
func widePair(rng *rand.Rand, idU, idV, m int, q *uncertain.Object, center geom.Point) (u, v *uncertain.Object) {
	u = randObject(rng, idU, 2, m, center, 6)
	qc := q.MBR().Center()
	hull := q.HullIndices()
	sum := func(p geom.Point) (s float64) {
		for _, j := range hull {
			s += geom.Dist(q.Instance(j), p)
		}
		return s
	}
	// beyond reports whether some hull instance finds p farther than r by
	// more than the hair.
	beyond := func(p, r geom.Point) bool {
		for _, j := range hull {
			if geom.Dist(q.Instance(j), p) > geom.Dist(q.Instance(j), r)+1e-3 {
				return true
			}
		}
		return false
	}
	up := slices.Clone(u.Points())
	steps := make([]float64, m)
	a := 0
	for i, p := range up {
		steps[i] = 0.5 + rng.Float64()
		if sum(p) < sum(up[a]) {
			a = i
		}
	}
	b := (a + 1) % m
	for _, turn := range []float64{0.02, -0.02, 0.1, -0.1, 0.3, -0.3} {
		s, c := math.Sincos(turn)
		x, y := up[a][0]-qc[0], up[a][1]-qc[1]
		up[b] = geom.Point{qc[0] + c*x - s*y, qc[1] + s*x + c*y}
		if beyond(up[a], up[b]) && beyond(up[b], up[a]) {
			break
		}
	}
	if !beyond(up[a], up[b]) || !beyond(up[b], up[a]) {
		panic(fmt.Sprintf("widePair: no turn makes U's nearest instance and its twin incomparable under the hull %v", q.Points()))
	}
	if sum(up[b]) < sum(up[a]) {
		a, b = b, a
	}
	for i, p := range up {
		if gap := sum(up[b]) - sum(p); i != b && gap >= 0 {
			steps[i] = max(steps[i], 2*gap+1)
		}
	}
	steps[b] = 1e-6
	pts := make([]geom.Point, m)
	for i, p := range up {
		d := geom.Dist(p, qc)
		pts[i] = geom.Point{p[0] + (p[0]-qc[0])/d*steps[i], p[1] + (p[1]-qc[1])/d*steps[i]}
	}
	return uncertain.MustNew(idU, up, u.Probs()), uncertain.MustNew(idV, pts, u.Probs())
}

// requireExactVerdict asserts that the full ladder takes P-SD(u, v) all the
// way to the exact test — the sweep went through every run of both objects,
// no filter answered and a transport was solved — and that its verdict
// there is the independent max-flow oracle's.
func requireExactVerdict(t *testing.T, q, u, v *uncertain.Object) {
	t.Helper()
	c := NewChecker(q, PSD, AllFilters)
	got := c.Dominates(u, v)
	st := c.Stats
	if c.cacheOf(u).sorted != q.Len() || c.cacheOf(v).sorted != q.Len() || st.FlowSolves == 0 ||
		st.StatPrunes+st.CoverValidations != 0 {
		t.Fatalf("P-SD(%d,%d) was decided before the exact test: %+v", u.ID(), v.ID(), st)
	}
	if want := oraclePSDMatch(u, v, q); got != want {
		t.Fatalf("P-SD(%d,%d) = %v, max-flow oracle %v", u.ID(), v.ID(), got, want)
	}
}

// A warm sweep and solve on wide objects allocate nothing: sorted runs,
// rows, flow matrix and solver state are the checker's scratch at their
// high-water size, with rows one word wide and three.
func TestPSDExactWideObjectsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	q := randObject(rng, 0, 2, 4, geom.Point{10, 10}, 3)
	for _, m := range []int{64, 130} {
		u, v := widePair(rng, 1, 2, m, q, geom.Point{60, 20})
		c := NewChecker(q, PSD, AllFilters)
		su, sv := c.summaryOf(u), c.summaryOf(v)
		exact := func() bool {
			adm, ok := c.sweep(su, sv)
			return ok && c.psdSolve(su, sv, adm)
		}
		if !exact() {
			t.Fatalf("m = %d: the pushed-out copy must be P-SD-dominated", m)
		}
		if n := testing.AllocsPerRun(50, func() { exact() }); n != 0 {
			t.Fatalf("warm sweep and solve at m = %d allocate %v times per check, want 0", m, n)
		}
	}
}

// P-SD has no coarse rung: at object sizes on both sides of one mask word,
// the full ladder's verdict is the max-flow oracle's, and the pairs reach
// the transport.
func TestPSDHasNoCoarseRung(t *testing.T) {
	rng := rand.New(rand.NewSource(2801))
	for _, m := range []int{17, 40, 64, 130} {
		q := randObject(rng, 0, 2, 4, geom.Point{10, 10}, 3)
		u, pushed := widePair(rng, 1, 2, m, q, geom.Point{60, 20})
		cloud := randObject(rng, 3, 2, m, geom.Point{61, 21}, 6)
		c := NewChecker(q, PSD, AllFilters)
		for _, p := range [][2]*uncertain.Object{{u, pushed}, {pushed, u}, {u, cloud}, {cloud, u}} {
			if got, want := c.Dominates(p[0], p[1]), oraclePSDMatch(p[0], p[1], q); got != want {
				t.Fatalf("m = %d: P-SD(%d,%d) = %v, max-flow oracle %v", m, p[0].ID(), p[1].ID(), got, want)
			}
		}
		if c.Stats.FlowSolves == 0 {
			t.Fatalf("m = %d: no pair reached the transport: %+v", m, c.Stats)
		}
	}
}
