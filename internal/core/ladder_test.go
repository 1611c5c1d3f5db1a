package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/distr"
	"spatialdom/internal/flow"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/maxflow"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

// Tests for the verdict ladder and the query summary it reads: reordering
// the rungs, reading statistics without sorting, abandoning an exact network
// before its solve and scanning the band over slabs must each leave every
// answer where it was.

// ladderObject draws an object on a coarse grid (so distances tie and
// instances coincide), with weights that are sometimes absent, sometimes
// random and sometimes zero on one instance.
func ladderObject(rng *rand.Rand, id, m int, cx, cy float64) *uncertain.Object {
	pts := make([]geom.Point, m)
	for i := range pts {
		pts[i] = geom.Point{cx + float64(rng.Intn(7)), cy + float64(rng.Intn(7))}
	}
	if m > 1 && rng.Intn(3) == 0 {
		pts[m-1] = pts[0].Clone() // coincident instances
	}
	var ws []float64
	if rng.Intn(2) == 0 {
		ws = make([]float64, m)
		for i := range ws {
			ws[i] = 0.1 + rng.Float64()
		}
		if m > 1 && rng.Intn(2) == 0 {
			ws[rng.Intn(m)] = 0 // an instance outside the support
		}
	}
	return uncertain.MustNew(id, pts, ws)
}

// ladderPair draws a query and a pair of objects, steering a share of the
// draws into the corners the ladder must survive: duplicate objects
// (U_Q = V_Q), an instance of V inside CH(Q), a zero-probability instance
// nearer the query than any other, and twins moved by 1e-10.
func ladderPair(rng *rand.Rand) (q, u, v *uncertain.Object) {
	q = ladderObject(rng, 0, 1+rng.Intn(5), 10, 10)
	u = ladderObject(rng, 1, 1+rng.Intn(9), float64(rng.Intn(24)), float64(rng.Intn(24)))
	v = ladderObject(rng, 2, 1+rng.Intn(9), float64(rng.Intn(24)), float64(rng.Intn(24)))
	switch rng.Intn(6) {
	case 0: // duplicate
		v = uncertain.MustNew(2, u.Points(), u.Probs())
	case 1: // an instance of V at the query's centroid, inside CH(Q)
		c := geom.Point{0, 0}
		for _, p := range q.Points() {
			c[0] += p[0] / float64(q.Len())
			c[1] += p[1] / float64(q.Len())
		}
		v = uncertain.MustNew(2, append([]geom.Point{c}, v.Points()...), nil)
	case 2: // a zero-probability instance of V on top of a query instance
		ws := append([]float64{0}, v.Probs()...)
		v = uncertain.MustNew(2, append([]geom.Point{q.Instance(0)}, v.Points()...), ws)
	case 3: // V is U moved by 1e-10
		pts := make([]geom.Point, u.Len())
		for i, p := range u.Points() {
			pts[i] = geom.Point{p[0] + 1e-10, p[1]}
		}
		v = uncertain.MustNew(2, pts, u.Probs())
	}
	return q, u, v
}

// With every filter on, with each single filter off and with none, under
// the Euclidean fast path and the generic metric path, Dominates returns the
// unfiltered verdict, the moved twins included: every rung compares
// distances exactly.
func TestLadderAgreesWithNoFilter(t *testing.T) {
	cfgs := []FilterConfig{AllFilters, AllFilters, AllFilters}
	cfgs[1].StatPruning = false
	cfgs[2].Geometric = false
	rng := rand.New(rand.NewSource(1701))
	for iter := 0; iter < 600; iter++ {
		q, u, v := ladderPair(rng)
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, op := range Operators {
				want := NewCheckerMetric(q, op, FilterConfig{}, m)
				for _, cfg := range cfgs {
					got := NewCheckerMetric(q, op, cfg, m)
					for _, p := range [][2]*uncertain.Object{{u, v}, {v, u}} {
						if g, w := got.Dominates(p[0], p[1]), want.Dominates(p[0], p[1]); g != w {
							t.Fatalf("iter %d %s %v %+v: Dominates(%d,%d) = %v, unfiltered %v\nq=%v\nu=%v\nv=%v",
								iter, m.Name(), op, cfg, p[0].ID(), p[1].ID(), g, w, q, u, v)
						}
					}
				}
			}
		}
	}
}

// Theorem 2's chain over ladderPair's draws, moved twins and duplicates
// included, both ways round, under L2 and L1: every P-SD "yes" is an SS-SD
// "yes", and every SS-SD "yes" an S-SD one.
func TestLadderCoverChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1706))
	held := 0
	for iter := 0; iter < 2000; iter++ {
		q, u, v := ladderPair(rng)
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			p, ss, s := NewCheckerMetric(q, PSD, AllFilters, m), NewCheckerMetric(q, SSSD, AllFilters, m), NewCheckerMetric(q, SSD, AllFilters, m)
			for _, o := range [][2]*uncertain.Object{{u, v}, {v, u}} {
				pd, ssd, sd := p.Dominates(o[0], o[1]), ss.Dominates(o[0], o[1]), s.Dominates(o[0], o[1])
				if pd && !ssd || ssd && !sd {
					t.Fatalf("iter %d %s: P-SD %v, SS-SD %v, S-SD %v\nq=%v\nu=%v\nv=%v", iter, m.Name(), pd, ssd, sd, q, o[0], o[1])
				}
				if pd {
					held++
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no draw has a P-SD pair")
	}
}

// The same agreement on pairs of 70 instances, where P-SD's rows are two
// words wide. Half the draws are a pair only the
// exact test can decide; the rest are independent clouds.
func TestLadderAgreesWithNoFilterWideObjects(t *testing.T) {
	cfgs := []FilterConfig{AllFilters, AllFilters, AllFilters}
	cfgs[1].StatPruning = false
	cfgs[2].Geometric = false
	rng := rand.New(rand.NewSource(1705))
	for iter := 0; iter < 12; iter++ {
		// A query of one distinct point makes ⪯Q a total order, under which
		// rung 7's match walk is Theorem 1's and decides every pair the exact
		// test could: only a wider query has a pair for the exact test alone.
		q := ladderObject(rng, 0, 2+rng.Intn(4), 10, 10)
		for slices.Equal(q.MBR().Lo, q.MBR().Hi) {
			q = ladderObject(rng, 0, 2+rng.Intn(4), 10, 10)
		}
		u, v := widePair(rng, 1, 2, 70, q, geom.Point{50 + float64(rng.Intn(20)), 20})
		if iter%2 == 0 {
			requireExactVerdict(t, q, u, v)
		} else {
			v = randObject(rng, 2, 2, 70, geom.Point{52 + float64(rng.Intn(20)), 21}, 6)
		}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, op := range Operators {
				want := NewCheckerMetric(q, op, FilterConfig{}, m)
				for _, cfg := range cfgs {
					got := NewCheckerMetric(q, op, cfg, m)
					for _, p := range [][2]*uncertain.Object{{u, v}, {v, u}} {
						if g, w := got.Dominates(p[0], p[1]), want.Dominates(p[0], p[1]); g != w {
							t.Fatalf("iter %d %s %v %+v: Dominates(%d,%d) = %v, unfiltered %v",
								iter, m.Name(), op, cfg, p[0].ID(), p[1].ID(), g, w)
						}
					}
				}
			}
		}
	}
}

// The summary reads the heap key and the statistics off unsorted atoms:
// the key is bit-for-bit the minimum of the sorted U_Q, the mean agrees
// with the sorted sum to rounding, and a zero-probability instance moves
// neither. U_Q as the checker builds it — the runs sorted one by one, some
// of them already by a sweep, then merged — holds the distances of
// nnfunc.BetweenFunc, each atom naming the pair of instances it lies
// between, for |Q| of 1 to 9 (every merge-pass count up to four): atom for
// atom on objects scattered in the plane, and up to the order of ties on
// an integer grid, where many atoms tie. The masses the scan derives from
// those names sum to T_Q·T_U over U_Q and to T_U over each run.
func TestSummaryMatchesSortedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	grid := func(id, m int) *uncertain.Object {
		pts := make([]geom.Point, m)
		w := make([]float64, m)
		sum := 0.0
		for i := range pts {
			pts[i] = geom.Point{float64(rng.Intn(5)), float64(rng.Intn(5))}
			w[i] = float64(1 + rng.Intn(3))
			sum += w[i]
		}
		// Top the weights up to a power-of-two sum, so normalizing is exact.
		w[0] += math.Exp2(math.Ceil(math.Log2(sum))) - sum
		return uncertain.MustNew(id, pts, w)
	}
	for iter := 0; iter < 500; iter++ {
		nq, onGrid := 1+iter%9, iter%2 == 1
		q := randObject(rng, 0, 2, nq, randCenter(rng, 2, 100), 5)
		o := randObject(rng, 1, 2, 1+rng.Intn(30), randCenter(rng, 2, 100), 8)
		if onGrid {
			q, o = grid(0, nq), grid(1, 1+rng.Intn(30))
		}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Chebyshev} {
			c := NewCheckerMetric(q, SSD, AllFilters, m)
			want := nnfunc.BetweenFunc(o, q, m.Dist)
			if got := c.MinPairDist(o); got != want.Min() {
				t.Fatalf("iter %d %s: MinPairDist = %v, sorted min = %v", iter, m.Name(), got, want.Min())
			}
			oc := c.summaryOf(o)
			if oc.stat.Max != want.Max() {
				t.Fatalf("iter %d %s: summary max = %v, sorted max = %v", iter, m.Name(), oc.stat.Max, want.Max())
			}
			if d := math.Abs(oc.stat.Mean - want.Mean()); d > 1e-12*(1+want.Mean()) {
				t.Fatalf("iter %d %s: summary mean off by %g", iter, m.Name(), d)
			}
			if pre := rng.Intn(nq + 1); pre > 0 {
				c.sortedRun(oc, pre-1) // a sweep got this far first
			}
			got, ref := c.distQ(oc), refAtoms(q, o, m, -1)
			if !sameAtoms(got, ref) || !onGrid && !slices.Equal(got, ref) {
				t.Fatalf("iter %d %s: merged U_Q differs from the instance pairs", iter, m.Name())
			}
			var sum distr.Mass
			for _, a := range got {
				sum = sum.Add(distr.Mul(c.qMass[a.Q], oc.mass[a.U]))
			}
			if sum != distr.Mul(c.qTotal, oc.total) {
				t.Fatalf("iter %d %s: U_Q's derived masses sum to %v, not T_Q·T_U", iter, m.Name(), sum)
			}
			for k, a := range got {
				if a.Dist != want.Pair(k).Dist {
					t.Fatalf("iter %d %s: U_Q's atom %d lies at %v, nnfunc.BetweenFunc's at %v", iter, m.Name(), k, a.Dist, want.Pair(k).Dist)
				}
			}
			for j := 0; j < q.Len(); j++ {
				wj := nnfunc.BetweenInstanceFunc(o, q.Instance(j), m.Dist)
				run := c.sortedRun(oc, j)
				if !sameAtoms(run, refAtoms(q, o, m, j)) || oc.perQStat[j].Min != wj.Min() || oc.perQStat[j].Max != wj.Max() {
					t.Fatalf("iter %d %s: U_q %d differs from nnfunc.BetweenInstance", iter, m.Name(), j)
				}
				var sum uint64
				for _, a := range run {
					sum += oc.mass[a.U]
				}
				if sum != oc.total {
					t.Fatalf("iter %d %s: U_q %d's derived masses sum to %d, not T_U = %d", iter, m.Name(), j, sum, oc.total)
				}
			}
		}
	}

	// A zero-probability instance sitting on the query is outside the support.
	q := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	o := uncertain.MustNew(1, []geom.Point{{0, 0}, {3, 4}, {6, 8}}, []float64{0, 1, 1})
	st := NewChecker(q, SSD, AllFilters).summaryOf(o).stat
	if st != (distr.Stat{Min: 5, Mean: 7.5, Max: 10}) {
		t.Fatalf("support statistics = %+v, want {5 7.5 10}", st)
	}
}

// Whenever the isolated-vertex exit fires, the max flow it skipped would
// have fallen short of 1 by at least the isolated atom's mass, however
// small: here 1e-10, which the reference network still sees.
func TestIsolatedMassAgreesWithMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	probs := func(n int) []float64 {
		p := make([]float64, n)
		var sum float64
		for i := range p {
			switch rng.Intn(6) {
			case 0: // outside the support
			case 1:
				p[i] = 1e-10
			default:
				p[i] = rng.Float64()
			}
			sum += p[i]
		}
		if sum == 0 {
			p[0], sum = 1, 1
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	fired, held := 0, 0
	var tr flow.Transport
	for iter := 0; iter < 10000; iter++ {
		nu, nv := 1+rng.Intn(6), 1+rng.Intn(6)
		pu, pv := probs(nu), probs(nv)
		density := rng.Float64()
		w := flow.RowWords(nv)
		rows := make([]uint64, nu*w)
		g := maxflow.NewNetwork(nu + nv + 2)
		s, sink := 0, nu+nv+1
		for i, p := range pu {
			g.AddEdge(s, 1+i, p)
		}
		for j, p := range pv {
			g.AddEdge(1+nu+j, sink, p)
		}
		for i := 0; i < nu; i++ {
			for j := 0; j < nv; j++ {
				if rng.Float64() < density {
					g.AddEdge(1+i, 1+nu+j, math.Inf(1))
					flow.SetPair(rows, w, i, j)
				}
			}
		}
		matched := g.MaxFlow(s, sink) >= 1-1e-11
		if tr.Isolated(units(pu), units(pv), rows) {
			fired++
			if matched {
				t.Fatalf("iter %d: exit fired on a network whose max flow is 1\npu=%v\npv=%v\nrows=%b", iter, pu, pv, rows)
			}
		} else if matched {
			held++
		}
	}
	if fired < 1000 || held < 1000 {
		t.Fatalf("generator is lopsided: exit fired %d times, %d networks matched", fired, held)
	}
}

// Co-located copies under every operator: grid points, each with one to
// three single-instance copies, and a two-instance query, searched under
// AllFilters at k 1–4, under L2 and L1, against the brute-force k-skyband
// with and without filters. Copies dominate neither each other nor, at
// equal rows, anything else, so the k-skyband of a non-empty set is never
// empty. Without F-SD's and F⁺-SD's U_Q ≠ V_Q witness the brute force
// answers no candidate at all on some of these sets, and the search, whose
// answer then depends on its heap order, disagrees with it.
func TestCopiesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2106))
	for set := range 25 {
		var objs []*uncertain.Object
		for range 30 {
			p := geom.Point{float64(rng.Intn(8)), float64(rng.Intn(8))}
			for range 1 + rng.Intn(3) {
				objs = append(objs, uncertain.MustNew(len(objs)+1, []geom.Point{p}, nil))
			}
		}
		q := uncertain.MustNew(0, []geom.Point{{rng.Float64() * 8, rng.Float64() * 8}, {rng.Float64() * 8, rng.Float64() * 8}}, nil)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, op := range Operators {
				for k := 1; k <= 4; k++ {
					res, err := idx.SearchKCtx(context.Background(), q, op, k, SearchOptions{Filters: AllFilters, Metric: m})
					if err != nil {
						t.Fatal(err)
					}
					got, want := idsOf(res.Objects()), bruteForceMetric(objs, q, op, k, m)
					if len(want) == 0 || !slices.Equal(got, want) {
						t.Fatalf("set %d %s %v k=%d: candidates %v, brute force %v", set, m.Name(), op, k, got, want)
					}
					if m == geom.Euclidean {
						if all := idsOf(BruteForceK(objs, q, op, k, AllFilters)); !slices.Equal(all, want) {
							t.Fatalf("set %d %v k=%d: filtered brute force %v, unfiltered %v", set, op, k, all, want)
						}
					}
				}
			}
		}
	}
}

// The sweep over the slab band returns, for every operator and k, the
// brute-force k-skyband, in non-decreasing key order, each candidate
// carrying its exact dominator count within the answer. Every operator also
// gets a duplicate object — tied keys, U_Q = V_Q — which no operator lets
// dominate its copy.
func TestSlabBandMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	for iter := 0; iter < 6; iter++ {
		base := make([]*uncertain.Object, 60)
		for i := range base {
			base[i] = ladderObject(rng, i, 1+rng.Intn(8), float64(rng.Intn(40)), float64(rng.Intn(40)))
		}
		q := ladderObject(rng, 1000, 1+rng.Intn(5), 18, 18)
		for _, op := range Operators {
			objs := slices.Clone(base)
			objs[7] = uncertain.MustNew(7, objs[3].Points(), objs[3].Probs())
			idx, err := NewIndex(objs)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 4} {
				res, err := idx.SearchKCtx(context.Background(), q, op, k, SearchOptions{Filters: AllFilters})
				if err != nil {
					t.Fatal(err)
				}
				got, want := idsOf(res.Objects()), idsOf(BruteForceK(objs, q, op, k, FilterConfig{}))
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d %v k=%d: candidates %v, brute force %v", iter, op, k, got, want)
				}
				ck := NewChecker(q, op, FilterConfig{})
				for i, c := range res.Candidates {
					if i > 0 && c.MinDist < res.Candidates[i-1].MinDist {
						t.Fatalf("iter %d %v k=%d: candidate %d emitted out of key order", iter, op, k, c.Object.ID())
					}
					n := 0
					for _, d := range res.Candidates {
						if d.Object != c.Object && ck.Dominates(d.Object, c.Object) {
							n++
						}
					}
					if n != c.Dominators {
						t.Fatalf("iter %d %v k=%d: candidate %d reports %d dominators, the answer holds %d",
							iter, op, k, c.Object.ID(), c.Dominators, n)
					}
				}
			}
		}
	}
}

// Keying a freshly constructed object reads its summary and nothing else:
// with the scratch slabs grown, MinPairDist allocates nothing.
func TestMinPairDistFreshObjectZeroAllocs(t *testing.T) {
	q, objs := allocObjs(64, 10, 5)
	var sc CheckScratch
	c := sc.Checker(q, SSD, AllFilters, geom.Euclidean)
	for _, o := range objs {
		c.MinPairDist(o) // grow the slabs
	}
	fresh := make([]*uncertain.Object, len(objs))
	for i, o := range objs {
		fresh[i] = uncertain.MustNew(o.ID(), o.Points(), nil)
	}
	c = sc.Checker(q, SSD, AllFilters, geom.Euclidean)
	next := 0
	if avg := testing.AllocsPerRun(len(fresh)-1, func() {
		c.MinPairDist(fresh[next])
		next++
	}); avg != 0 {
		t.Fatalf("MinPairDist on a fresh object allocated %.2f times, want 0", avg)
	}
}

// ScanPrunes is the part of StatPrunes that needed a scan: P-SD counts
// some, never more than StatPrunes, and S-SD — whose pruning is the three
// statistics alone — counts none.
func TestScanPrunesSubsetOfStatPrunes(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 80, M: 8, Centers: datagen.NBALike, Seed: 43})
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 6, 200, 44)[0]
	psd := searchK(idx, q, PSD, 1, SearchOptions{Filters: AllFilters}).Stats
	if psd.ScanPrunes == 0 || psd.ScanPrunes > psd.StatPrunes {
		t.Fatalf("P-SD: ScanPrunes = %d of StatPrunes = %d", psd.ScanPrunes, psd.StatPrunes)
	}
	if ssd := searchK(idx, q, SSD, 1, SearchOptions{Filters: AllFilters}).Stats; ssd.ScanPrunes != 0 || ssd.StatPrunes == 0 {
		t.Fatalf("S-SD: ScanPrunes = %d, StatPrunes = %d", ssd.ScanPrunes, ssd.StatPrunes)
	}
}

// units returns the integer masses of probabilities p.
func units(p []float64) []uint64 {
	c := make([]uint64, len(p))
	distr.Masses(c, p)
	return c
}

// total is the sum of integer masses c.
func total(c []uint64) (t uint64) {
	for _, x := range c {
		t += x
	}
	return t
}

// refAtoms is U_Q of o, or U_q for query instance j ≥ 0, from the
// definition: every pair of instances at its distance under m, naming the
// two instances (the query's as 0 for U_q, whose query side is the unit
// table), sorted.
func refAtoms(q, o *uncertain.Object, m geom.Metric, j int) []distr.Atom {
	var atoms []distr.Atom
	for k := range q.Len() {
		if j >= 0 && k != j {
			continue
		}
		qk := int32(k)
		if j >= 0 {
			qk = 0
		}
		for i := range o.Len() {
			atoms = append(atoms, distr.Atom{Dist: m.Dist(q.Instance(k), o.Instance(i)), Q: qk, U: int32(i)})
		}
	}
	slices.SortStableFunc(atoms, func(a, b distr.Atom) int { return cmp.Compare(a.Dist, b.Dist) })
	return atoms
}

// sameAtoms reports whether two sorted atom lists hold the same atoms —
// distances bit for bit, and the instances they name — in whatever order
// their ties fell.
func sameAtoms(x, y []distr.Atom) bool {
	order := func(a []distr.Atom) []distr.Atom {
		a = slices.Clone(a)
		slices.SortFunc(a, func(a, b distr.Atom) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Q, b.Q), cmp.Compare(a.U, b.U))
		})
		return a
	}
	return slices.IsSortedFunc(x, func(a, b distr.Atom) int { return cmp.Compare(a.Dist, b.Dist) }) && slices.Equal(order(x), order(y))
}
