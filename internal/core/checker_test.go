package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

// pointWithDists constructs a 2-D point at the prescribed distances from
// q1 = (0,0) and q2 = (sep,0). It panics when the distances are infeasible.
func pointWithDists(sep, d1, d2 float64) geom.Point {
	x := (d1*d1 - d2*d2 + sep*sep) / (2 * sep)
	y2 := d1*d1 - x*x
	if y2 < -1e-9 {
		panic("infeasible distance pair")
	}
	if y2 < 0 {
		y2 = 0
	}
	return geom.Point{x, math.Sqrt(y2)}
}

func checkAllConfigs(t *testing.T, op Operator, q, u, v *uncertain.Object, want bool, label string) {
	t.Helper()
	for _, cfg := range []FilterConfig{
		{},
		{StatPruning: true},
		{Geometric: true},
		AllFilters,
	} {
		c := NewChecker(q, op, cfg)
		if got := c.Dominates(u, v); got != want {
			t.Errorf("%s: %v with cfg %+v = %v, want %v", label, op, cfg, got, want)
		}
	}
}

// Example 2 / Figure 6(a): single-instance A and B, two query instances.
// A_Q = {(3,.5),(17,.5)}, B_Q = {(5,.5),(25,.5)}: S-SD(A,B,Q) holds, but
// A_q1 = {17} vs B_q1 = {5} breaks SS-SD.
func TestPaperExample2(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0}, {20}}, nil)
	a := uncertain.MustNew(1, []geom.Point{{17}}, nil)
	b := uncertain.MustNew(2, []geom.Point{{-5}}, nil)

	checkAllConfigs(t, SSD, q, a, b, true, "S-SD(A,B)")
	checkAllConfigs(t, SSSD, q, a, b, false, "SS-SD(A,B)")
	checkAllConfigs(t, PSD, q, a, b, false, "P-SD(A,B)")
	checkAllConfigs(t, FSD, q, a, b, false, "F-SD(A,B)")
}

// Figure 3's story: A close to q1's side, C hugging q2. S-SD(A,C,Q) holds
// on the mixed distribution yet C is strictly closer to q2 than A, so
// SS-SD(A,C,Q) fails (and C wins under the NN-probability function).
func TestPaperFigure3(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {10, 0}}, nil)
	a := uncertain.MustNew(1, []geom.Point{{0, -3}, {0, 3}}, nil)    // A_q1={3,3}, A_q2≈{10.44,10.44}
	b := uncertain.MustNew(2, []geom.Point{{0, -3.5}, {0, 6}}, nil)  // farther than A, crosses C
	cc := uncertain.MustNew(3, []geom.Point{{10, -4}, {10, 4}}, nil) // C_q2={4,4}, C_q1≈{10.77,10.77}

	checkAllConfigs(t, SSD, q, a, b, true, "S-SD(A,B)")
	checkAllConfigs(t, SSSD, q, a, b, true, "SS-SD(A,B)")
	checkAllConfigs(t, SSD, q, a, cc, true, "S-SD(A,C)")
	checkAllConfigs(t, SSSD, q, a, cc, false, "SS-SD(A,C)")
	checkAllConfigs(t, PSD, q, a, cc, false, "P-SD(A,C)")
	// B vs C incomparable under S-SD.
	checkAllConfigs(t, SSD, q, b, cc, false, "S-SD(B,C)")
	checkAllConfigs(t, SSD, q, cc, b, false, "S-SD(C,B)")
}

// A Figure 4-style configuration: SS-SD(A,B,Q) holds per query instance,
// but A's "specialist" instance (good at nothing B offers) cannot be
// matched, so P-SD(A,B,Q) fails.
func TestPaperFigure4StyleNoMatch(t *testing.T) {
	const sep = 2
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {sep, 0}}, nil)
	a := uncertain.MustNew(1, []geom.Point{
		pointWithDists(sep, 5, 5), // a1: dominated by no b instance
		pointWithDists(sep, 4, 4),
	}, nil)
	b := uncertain.MustNew(2, []geom.Point{
		pointWithDists(sep, 6, 4.5),
		pointWithDists(sep, 4.5, 6),
	}, nil)

	checkAllConfigs(t, SSD, q, a, b, true, "S-SD(A,B)")
	checkAllConfigs(t, SSSD, q, a, b, true, "SS-SD(A,B)")
	checkAllConfigs(t, PSD, q, a, b, false, "P-SD(A,B)")
	checkAllConfigs(t, FSD, q, a, b, false, "F-SD(A,B)")
}

// Example 3 / Figure 8: the match a1→b1, a2→b2 proves P-SD(A,B,Q).
func TestPaperExample3Match(t *testing.T) {
	const sep = 12
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {sep, 0}}, nil)
	a := uncertain.MustNew(1, []geom.Point{
		pointWithDists(sep, 5, 15),
		pointWithDists(sep, 20, 10),
	}, nil)
	b := uncertain.MustNew(2, []geom.Point{
		pointWithDists(sep, 10, 20),
		pointWithDists(sep, 25, 15),
	}, nil)

	checkAllConfigs(t, PSD, q, a, b, true, "P-SD(A,B)")
	checkAllConfigs(t, SSSD, q, a, b, true, "SS-SD(A,B)")
	checkAllConfigs(t, SSD, q, a, b, true, "S-SD(A,B)")
	// F-SD fails: a2 (dist 20 from q1) is farther than b1 (dist 10 from q1).
	checkAllConfigs(t, FSD, q, a, b, false, "F-SD(A,B)")
}

// F-SD holds when U's whole extent is closer than V's to every query
// instance; then every operator must agree (Theorem 2 validation chain).
func TestFSDImpliesAll(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {1, 1}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{0.4, 0.4}, {0.6, 0.6}}, nil)
	v := uncertain.MustNew(2, []geom.Point{{50, 50}, {51, 51}}, nil)
	for _, op := range Operators {
		checkAllConfigs(t, op, q, u, v, true, "far-V "+op.String())
	}
}

// chainedPoints returns ten points on a ray away from the query region,
// each strictly closer to every query instance near the origin than the
// next: as the instances of a twin pair, every (i, j > i) is a strict ⪯Q pair.
func chainedPoints() []geom.Point {
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Point{5 + float64(i), 5 + float64(i)}
	}
	return pts
}

// No operator may let an object dominate an identical twin (the U_Q ≠ V_Q
// side condition of Definitions 2, 3 and 5) — also when the twins' instances
// ⪯Q-dominate one another: the transport then matches every instance to its
// copy, the strict pairs carry nothing, and only the comparison of the two
// distributions can settle U_Q ≠ V_Q. Ten atoms a side, so that a row of the
// flow matrix does not start on a word boundary. F-SD and F+SD hold the
// same condition by their witnesses (a strict row, or for F-SD a spread):
// two co-located points, whose rows are all equalities, cover each other
// and still do not dominate.
func TestIdenticalObjectsDontDominate(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {2, 0}, {1, 2}}, nil)
	for _, twin := range []struct {
		pts []geom.Point
		ws  []float64
	}{
		{[]geom.Point{{5, 5}}, nil},
		{[]geom.Point{{5, 5}, {6, 6}}, nil},
		{chainedPoints(), nil},
		{chainedPoints(), []float64{3, 1, 2, 1, 1, 4, 1, 2, 1, 1}},
	} {
		u, v := uncertain.MustNew(1, twin.pts, twin.ws), uncertain.MustNew(2, twin.pts, twin.ws)
		for _, op := range Operators {
			checkAllConfigs(t, op, q, u, v, false, "twin "+op.String())
			checkAllConfigs(t, op, q, v, u, false, "twin, swapped "+op.String())
		}
	}
}

// Random twins of 3 to 20 instances, uniform or weighted: neither copy
// P-SD-dominates the other under any filter configuration.
func TestRandomTwinsDontDominate(t *testing.T) {
	rng := rand.New(rand.NewSource(2305))
	for iter := 0; iter < 200; iter++ {
		q := randObject(rng, 0, 2, 1+rng.Intn(5), randCenter(rng, 2, 20), 4)
		u := randObject(rng, 1, 2, 3+rng.Intn(18), randCenter(rng, 2, 20), 8)
		v := uncertain.MustNew(2, u.Points(), u.Probs())
		checkAllConfigs(t, PSD, q, u, v, false, "random twin")
		checkAllConfigs(t, PSD, q, v, u, false, "random twin, swapped")
	}
}

// --- randomized helpers -------------------------------------------------------

func randObject(rng *rand.Rand, id, d, m int, center geom.Point, spread float64) *uncertain.Object {
	pts := make([]geom.Point, m)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = center[j] + (rng.Float64()*2-1)*spread
		}
		pts[i] = p
	}
	// Random (normalizable) weights half the time.
	if rng.Intn(2) == 0 {
		return uncertain.MustNew(id, pts, nil)
	}
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = rng.Float64() + 0.05
	}
	return uncertain.MustNew(id, pts, ws)
}

func randCenter(rng *rand.Rand, d int, scale float64) geom.Point {
	c := make(geom.Point, d)
	for j := range c {
		c[j] = rng.Float64() * scale
	}
	return c
}

// Verdicts must be identical across every filter configuration — the
// filters are pure accelerations (differential correctness test).
func TestFilterConfigsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfgs := []FilterConfig{
		{},
		{StatPruning: true},
		{Geometric: true},
		AllFilters,
	}
	for iter := 0; iter < 300; iter++ {
		d := 2 + rng.Intn(2)
		q := randObject(rng, 0, d, 1+rng.Intn(5), randCenter(rng, d, 10), 2)
		u := randObject(rng, 1, d, 1+rng.Intn(6), randCenter(rng, d, 10), 3)
		v := randObject(rng, 2, d, 1+rng.Intn(6), randCenter(rng, d, 10), 3)
		for _, op := range Operators {
			base := NewChecker(q, op, cfgs[0]).Dominates(u, v)
			for _, cfg := range cfgs[1:] {
				if got := NewChecker(q, op, cfg).Dominates(u, v); got != base {
					t.Fatalf("iter %d: %v verdict differs: cfg %+v = %v, bare = %v\nq=%v\nu=%v\nv=%v",
						iter, op, cfg, got, base, q.Points(), u.Points(), v.Points())
				}
			}
		}
	}
}

// Theorem 2 cover chain: F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD (as implications on
// random inputs).
func TestCoverChain(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	counts := map[Operator]int{}
	for iter := 0; iter < 600; iter++ {
		d := 2 + rng.Intn(2)
		q := randObject(rng, 0, d, 1+rng.Intn(4), randCenter(rng, d, 10), 1.5)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(5), base, 2)
		// Bias v to sometimes be dominated.
		off := make(geom.Point, d)
		copy(off, base)
		off[0] += rng.Float64() * 8
		v := randObject(rng, 2, d, 1+rng.Intn(5), off, 2)

		fsd := NewChecker(q, FSD, AllFilters).Dominates(u, v)
		psd := NewChecker(q, PSD, AllFilters).Dominates(u, v)
		sssd := NewChecker(q, SSSD, AllFilters).Dominates(u, v)
		ssd := NewChecker(q, SSD, AllFilters).Dominates(u, v)

		if fsd && !psd {
			t.Fatalf("iter %d: F-SD holds but P-SD fails", iter)
		}
		if psd && !sssd {
			t.Fatalf("iter %d: P-SD holds but SS-SD fails", iter)
		}
		if sssd && !ssd {
			t.Fatalf("iter %d: SS-SD holds but S-SD fails", iter)
		}
		for op, ok := range map[Operator]bool{FSD: fsd, PSD: psd, SSSD: sssd, SSD: ssd} {
			if ok {
				counts[op]++
			}
		}
	}
	// The chain must be exercised in both directions: S-SD fires on more
	// pairs than SS-SD than P-SD than F-SD.
	if !(counts[SSD] >= counts[SSSD] && counts[SSSD] >= counts[PSD] && counts[PSD] >= counts[FSD]) {
		t.Fatalf("dominance frequencies out of order: %v", counts)
	}
	if counts[SSD] == 0 || counts[PSD] == 0 {
		t.Fatalf("chain not exercised: %v", counts)
	}
}

// Theorem 3: with a single query instance, P-SD, SS-SD and S-SD coincide
// (F-SD stays stronger).
func TestSingleQueryInstanceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 400; iter++ {
		d := 2 + rng.Intn(2)
		q := randObject(rng, 0, d, 1, randCenter(rng, d, 10), 0)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(5), base, 2)
		off := base.Clone()
		off[0] += rng.Float64() * 6
		v := randObject(rng, 2, d, 1+rng.Intn(5), off, 2)

		ssd := NewChecker(q, SSD, AllFilters).Dominates(u, v)
		sssd := NewChecker(q, SSSD, AllFilters).Dominates(u, v)
		psd := NewChecker(q, PSD, AllFilters).Dominates(u, v)
		fsd := NewChecker(q, FSD, AllFilters).Dominates(u, v)
		if ssd != sssd || ssd != psd {
			t.Fatalf("iter %d: |Q|=1 equivalence broken: ssd=%v sssd=%v psd=%v", iter, ssd, sssd, psd)
		}
		if fsd && !psd {
			t.Fatalf("iter %d: F-SD ⊄ P-SD at |Q|=1", iter)
		}
	}
}

// Theorem 9: transitivity of every operator, sampled.
func TestTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	exercised := map[Operator]int{}
	for iter := 0; iter < 1500; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 1)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(4), base, 1.5)
		m1 := base.Clone()
		m1[0] += 2 + rng.Float64()*4
		v := randObject(rng, 2, d, 1+rng.Intn(4), m1, 1.5)
		m2 := m1.Clone()
		m2[0] += 2 + rng.Float64()*4
		w := randObject(rng, 3, d, 1+rng.Intn(4), m2, 1.5)
		for _, op := range Operators {
			c := NewChecker(q, op, AllFilters)
			if c.Dominates(u, v) && c.Dominates(v, w) {
				exercised[op]++
				if !c.Dominates(u, w) {
					t.Fatalf("iter %d: %v transitivity violated", iter, op)
				}
			}
		}
	}
	for _, op := range []Operator{SSD, SSSD, PSD} {
		if exercised[op] == 0 {
			t.Fatalf("%v transitivity never exercised (%v)", op, exercised)
		}
	}
}

// S-SD, SS-SD and P-SD on chains U, V, W whose mass gaps each lie inside
// uncertain.MassBound of their atoms: one query instance and, on a ray
// from it, three objects that share a near point, where U carries δ less
// mass than V there and V δ less than W, and whose far points lie in the
// order U, V, W. δ is above half the bound, so distr.StochasticLE takes
// both links and refuses U ≤st W. Every pair of the three is checked for
// irreflexivity and asymmetry, and each "yes" for P-SD ⇒ SS-SD ⇒ S-SD,
// under L2 and L1, filtered and not. Transitivity does not hold on these
// chains under the float rule; the test reports how often it breaks.
func TestChainAcrossTheFloatBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	ops := []Operator{SSD, SSSD, PSD}
	broken, intransitive := 0, map[Operator]int{}
	for iter := range 200 {
		q0 := geom.Point{rng.Float64()*20 - 10, rng.Float64()*20 - 10}
		a := rng.Float64() * 2 * math.Pi
		at := func(d float64) geom.Point { return geom.Point{q0[0] + d*math.Cos(a), q0[1] + d*math.Sin(a)} }
		near, far := 1+rng.Float64()*5, 7+rng.Float64()*5
		delta := float64(5+rng.Intn(4)) * uncertain.MassBound(1) / 2 // in (MassBound(4)/2, MassBound(4)]
		chain := make([]*uncertain.Object, 3)
		for s := range chain {
			shift := float64(s-1) * delta
			chain[s] = normalized(t, s+1, []geom.Point{at(near), at(far + float64(s))}, []float64{0.5 + shift, 0.5 - shift})
		}
		q := uncertain.MustNew(0, []geom.Point{q0}, nil)
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			d := func(o *uncertain.Object) distr.Distribution { return nnfunc.BetweenFunc(o, q, m.Dist) }
			le := func(x, y int) bool { return distr.StochasticLE(d(chain[x]), d(chain[y]), nil) }
			if le(0, 1) && le(1, 2) && !le(0, 2) {
				broken++
			}
			for _, cfg := range []FilterConfig{AllFilters, {}} {
				var dom [3][3][3]bool // operator (ops), dominator, dominated
				for o, op := range ops {
					c := NewCheckerMetric(q, op, cfg, m)
					for i, u := range chain {
						for j, v := range chain {
							dom[o][i][j] = c.Dominates(u, v)
						}
					}
				}
				tag := fmt.Sprintf("iter %d %s %+v", iter, m.Name(), cfg)
				for o, op := range ops {
					if !dom[o][0][1] || !dom[o][1][2] {
						t.Fatalf("%s %v: the chain's links are %v and %v", tag, op, dom[o][0][1], dom[o][1][2])
					}
					if !dom[o][0][2] {
						intransitive[op]++
					}
					for i := range 3 {
						for j := range 3 {
							if dom[o][i][j] && dom[o][j][i] {
								t.Fatalf("%s %v: %d and %d dominate each other", tag, op, i, j)
							}
							if o > 0 && dom[o][i][j] && !dom[o-1][i][j] {
								t.Fatalf("%s: %v says %d over %d and %v does not", tag, op, i, j, ops[o-1])
							}
						}
					}
				}
			}
		}
	}
	if broken == 0 {
		t.Fatal("no chain breaks the float rule: the generator is not adversarial")
	}
	t.Logf("%d of 400 chains break the float rule; U over W missing: %v", broken, intransitive)
}

// The dominance frequency ordering also holds pairwise with Covers.
func TestOperatorCovers(t *testing.T) {
	if !SSD.Covers(SSSD) || !SSSD.Covers(PSD) || !PSD.Covers(FSD) || !FSD.Covers(FPlusSD) {
		t.Fatal("cover chain broken")
	}
	if FPlusSD.Covers(FSD) || PSD.Covers(SSD) {
		t.Fatal("reverse cover claimed")
	}
	for _, op := range Operators {
		if !op.Covers(op) {
			t.Fatalf("%v must cover itself", op)
		}
	}
}

func TestOperatorString(t *testing.T) {
	want := map[Operator]string{SSD: "SSD", SSSD: "SSSD", PSD: "PSD", FSD: "FSD", FPlusSD: "F+SD"}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d String = %q", int(op), op.String())
		}
		if got, err := ParseOperator(s); err != nil || got != op {
			t.Fatalf("ParseOperator(%q) = %v, %v", s, got, err)
		}
	}
	if Operator(99).String() != "Operator(99)" {
		t.Fatal("unknown operator String")
	}
	// The spellings the HTTP API and the command-line tools have always
	// taken: any case, surrounding space, FPLUSSD for F+SD — and no default.
	for s, op := range map[string]Operator{"ssd": SSD, " Sssd ": SSSD, "f+sd": FPlusSD, "fplussd": FPlusSD} {
		if got, err := ParseOperator(s); err != nil || got != op {
			t.Fatalf("ParseOperator(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "all", "Operator(99)"} {
		if _, err := ParseOperator(s); err == nil {
			t.Fatalf("ParseOperator(%q) accepted", s)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{InstanceComparisons: 1, DominanceChecks: 2, StatPrunes: 4,
		FlowSolves: 6, HeapPops: 7, EntryPrunes: 8, ScanPrunes: 9, ObjectPrunes: 10,
		CoverValidations: 11, IsolationPrunes: 12, MassPrunes: 13}
	b := a
	a.Add(b)
	if a.InstanceComparisons != 2 || a.EntryPrunes != 16 || a.FlowSolves != 12 || a.ScanPrunes != 18 || a.ObjectPrunes != 20 ||
		a.CoverValidations != 22 || a.IsolationPrunes != 24 || a.MassPrunes != 26 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
