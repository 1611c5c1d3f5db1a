package distr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

func dist(vals ...float64) Distribution {
	pairs := make([]Pair, len(vals))
	p := 1 / float64(len(vals))
	for i, v := range vals {
		pairs[i] = Pair{Dist: v, Prob: p}
	}
	return MustFromPairs(pairs)
}

func TestFromPairsSortsAndDropsZero(t *testing.T) {
	d := MustFromPairs([]Pair{{5, 0.5}, {1, 0.25}, {3, 0}, {2, 0.25}})
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Pair(0).Dist != 1 || d.Pair(1).Dist != 2 || d.Pair(2).Dist != 5 {
		t.Fatalf("not sorted: %v", d)
	}
}

func TestFromPairsValidation(t *testing.T) {
	if _, err := FromPairs([]Pair{{1, -0.1}}); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := FromPairs([]Pair{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN prob accepted")
	}
	if _, err := FromPairs([]Pair{{math.NaN(), 1}}); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestMustFromPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFromPairs([]Pair{{1, -1}})
}

// Paper Example 1 (Figure 6(b)): A_Q = {(5,.25),(8,.25),(10,.25),(23,.25)},
// A_{q1} = {(5,.5),(8,.5)}. We reconstruct coordinates that realize those
// distances on a line.
func TestBetweenPaperExample1(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0}, {15}}, nil) // q1=0, q2=15
	a := uncertain.MustNew(1, []geom.Point{{5}, {-8}}, nil) // δ(q1,a1)=5, δ(q1,a2)=8, δ(q2,a1)=10, δ(q2,a2)=23
	aq := Between(a, q)
	want := []Pair{{5, 0.25}, {8, 0.25}, {10, 0.25}, {23, 0.25}}
	if aq.Len() != 4 {
		t.Fatalf("A_Q = %v", aq)
	}
	for i, w := range want {
		got := aq.Pair(i)
		if math.Abs(got.Dist-w.Dist) > 1e-9 || math.Abs(got.Prob-w.Prob) > 1e-9 {
			t.Fatalf("A_Q[%d] = %v, want %v", i, got, w)
		}
	}
	aq1 := BetweenInstance(a, geom.Point{0})
	if aq1.Len() != 2 || aq1.Pair(0).Dist != 5 || aq1.Pair(1).Dist != 8 ||
		aq1.Pair(0).Prob != 0.5 {
		t.Fatalf("A_q1 = %v", aq1)
	}
}

func TestStats(t *testing.T) {
	d := dist(2, 4, 6, 8)
	if d.Min() != 2 || d.Max() != 8 {
		t.Fatalf("min/max = %g/%g", d.Min(), d.Max())
	}
	if d.Mean() != 5 {
		t.Fatalf("mean = %g", d.Mean())
	}
	if got := d.TotalProb(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("total = %g", got)
	}
}

func TestQuantile(t *testing.T) {
	d := MustFromPairs([]Pair{{1, 0.2}, {2, 0.3}, {3, 0.5}})
	cases := []struct {
		phi  float64
		want float64
	}{
		{0.1, 1}, {0.2, 1}, {0.3, 2}, {0.5, 2}, {0.51, 3}, {1.0, 3},
	}
	for _, c := range cases {
		if got := d.Quantile(c.phi); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.phi, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	d := dist(1)
	for _, phi := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%g) must panic", phi)
				}
			}()
			d.Quantile(phi)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile of empty must panic")
			}
		}()
		Distribution{}.Quantile(0.5)
	}()
}

func TestCDF(t *testing.T) {
	d := MustFromPairs([]Pair{{1, 0.5}, {3, 0.5}})
	for _, c := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.5}, {2, 0.5}, {3, 1}, {9, 1},
	} {
		if got := d.CDF(c.x); got != c.want {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := MustFromPairs([]Pair{{1, 0.5}, {2, 0.5}})
	b := MustFromPairs([]Pair{{1, 0.25}, {1, 0.25}, {2, 0.5}}) // split atom
	c := MustFromPairs([]Pair{{1, 0.5}, {2.5, 0.5}})
	d := MustFromPairs([]Pair{{1, 0.6}, {2, 0.4}})
	if !Equal(a, b, Eps) {
		t.Fatal("split atoms must compare equal")
	}
	if Equal(a, c, Eps) || Equal(a, d, Eps) {
		t.Fatal("different distributions compare equal")
	}
	if !Equal(Distribution{}, Distribution{}, Eps) {
		t.Fatal("empty distributions must be equal")
	}
}

func TestStochasticLEBasic(t *testing.T) {
	x := dist(1, 2, 3)
	y := dist(2, 3, 4)
	if !StochasticLE(x, y, Eps, nil) {
		t.Fatal("shifted-up distribution must dominate")
	}
	if StochasticLE(y, x, Eps, nil) {
		t.Fatal("reverse must fail")
	}
	// Crossing CDFs: neither dominates.
	u := dist(1, 10)
	v := dist(4, 5)
	if StochasticLE(u, v, Eps, nil) || StochasticLE(v, u, Eps, nil) {
		t.Fatal("crossing CDFs must be incomparable")
	}
	// Reflexive.
	if !StochasticLE(x, x, Eps, nil) {
		t.Fatal("X <=st X must hold")
	}
}

// Figure 3 of the paper: A, B, C with distance distributions such that
// S-SD(A,B), S-SD(A,C) hold and B, C are incomparable. We encode the
// distributions directly from the figure's sorted pair lists.
func TestStochasticLEPaperFigure3(t *testing.T) {
	// Values chosen to mirror the figure's ordering: A's pairwise distances
	// are smallest overall; C beats B on the low end but loses on the top.
	A := MustFromPairs([]Pair{{1, 0.25}, {2, 0.25}, {4, 0.25}, {5, 0.25}})
	B := MustFromPairs([]Pair{{2, 0.25}, {3, 0.25}, {5, 0.25}, {6, 0.25}})
	C := MustFromPairs([]Pair{{1.5, 0.25}, {2.5, 0.25}, {7, 0.25}, {8, 0.25}})
	if !StochasticLE(A, B, Eps, nil) || !StochasticLE(A, C, Eps, nil) {
		t.Fatal("A must stochastically dominate B and C")
	}
	if StochasticLE(B, C, Eps, nil) || StochasticLE(C, B, Eps, nil) {
		t.Fatal("B and C must be incomparable")
	}
}

func TestStochasticLECountsComparisons(t *testing.T) {
	x := dist(1, 2, 3)
	y := dist(4, 5, 6)
	var n int64
	StochasticLE(x, y, Eps, &n)
	if n != int64(x.Len()+y.Len()) {
		t.Fatalf("comparisons = %d, want %d", n, x.Len()+y.Len())
	}
}

// Theorem 1: the match order is equivalent to the usual stochastic order.
// We verify constructively on random distributions: Match succeeds iff
// StochasticLE holds, and when it succeeds every tuple has x <= y and the
// marginals are preserved.
func TestMatchEquivalentToStochasticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	randDist := func(n int) Distribution {
		pairs := make([]Pair, n)
		total := 0.0
		for i := range pairs {
			pairs[i] = Pair{Dist: float64(rng.Intn(20)), Prob: rng.Float64() + 0.01}
			total += pairs[i].Prob
		}
		for i := range pairs {
			pairs[i].Prob /= total
		}
		return MustFromPairs(pairs)
	}
	for iter := 0; iter < 2000; iter++ {
		x := randDist(1 + rng.Intn(8))
		y := randDist(1 + rng.Intn(8))
		le := StochasticLE(x, y, Eps, nil)
		m, ok := Match(x, y, Eps)
		if ok != le {
			t.Fatalf("iter %d: Match ok=%v but StochasticLE=%v", iter, ok, le)
		}
		if !ok {
			continue
		}
		// Every tuple respects the order.
		for _, tp := range m {
			if x.Pair(tp.XI).Dist > y.Pair(tp.YI).Dist+1e-9 {
				t.Fatalf("iter %d: tuple value %g > %g", iter, x.Pair(tp.XI).Dist, y.Pair(tp.YI).Dist)
			}
			if tp.P <= 0 {
				t.Fatalf("iter %d: non-positive tuple mass", iter)
			}
		}
		// Marginals are preserved.
		mx := make([]float64, x.Len())
		my := make([]float64, y.Len())
		for _, tp := range m {
			mx[tp.XI] += tp.P
			my[tp.YI] += tp.P
		}
		for i := range mx {
			if math.Abs(mx[i]-x.Pair(i).Prob) > 1e-6 {
				t.Fatalf("iter %d: X marginal %d = %g, want %g", iter, i, mx[i], x.Pair(i).Prob)
			}
		}
		for j := range my {
			if math.Abs(my[j]-y.Pair(j).Prob) > 1e-6 {
				t.Fatalf("iter %d: Y marginal %d = %g, want %g", iter, j, my[j], y.Pair(j).Prob)
			}
		}
	}
}

// Stable aggregate functions (Definition 8): X <=st Y implies min, mean,
// max, and every quantile are ordered (Theorem 11 pruning rule relies on
// this).
func TestStableAggregatesRespectOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tested := 0
	for iter := 0; iter < 5000 && tested < 500; iter++ {
		n := 1 + rng.Intn(6)
		pairsX := make([]Pair, n)
		pairsY := make([]Pair, n)
		p := 1 / float64(n)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 10
			pairsX[i] = Pair{Dist: v, Prob: p}
			pairsY[i] = Pair{Dist: v + rng.Float64()*5, Prob: p}
		}
		x := MustFromPairs(pairsX)
		y := MustFromPairs(pairsY)
		if !StochasticLE(x, y, Eps, nil) {
			continue
		}
		tested++
		if x.Min() > y.Min()+1e-9 || x.Max() > y.Max()+1e-9 || x.Mean() > y.Mean()+1e-9 {
			t.Fatalf("stable stats violated: %v vs %v", x, y)
		}
		for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 1} {
			if x.Quantile(phi) > y.Quantile(phi)+1e-9 {
				t.Fatalf("quantile(%g) violated: %v vs %v", phi, x, y)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no dominated pairs generated")
	}
}

func TestStochasticLETransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for iter := 0; iter < 3000 && tested < 200; iter++ {
		n := 1 + rng.Intn(5)
		p := 1 / float64(n)
		mk := func(shift float64) Distribution {
			pairs := make([]Pair, n)
			for i := range pairs {
				pairs[i] = Pair{Dist: rng.Float64()*10 + shift, Prob: p}
			}
			return MustFromPairs(pairs)
		}
		x, y, z := mk(0), mk(2), mk(4)
		if StochasticLE(x, y, Eps, nil) && StochasticLE(y, z, Eps, nil) {
			tested++
			if !StochasticLE(x, z, Eps, nil) {
				t.Fatalf("transitivity violated")
			}
		}
	}
	if tested == 0 {
		t.Fatal("no transitive chains exercised")
	}
}

func TestDistributionString(t *testing.T) {
	d := MustFromPairs([]Pair{{1, 0.5}, {2, 0.5}})
	if d.String() != "{(1, 0.5), (2, 0.5)}" {
		t.Fatalf("String = %q", d.String())
	}
}

// RunSorter leaves every run exactly as sortPairs does — tied distances
// included, on both sides of the insertion-sort cutoff — and names the
// instance each sorted atom came from.
func TestRunSorterMatchesSortRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var s RunSorter
	for _, m := range []int{1, 2, 10, insertionCutoff, insertionCutoff + 1, 130} {
		probs := make([]float64, m)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		runs := make([]Pair, 3*m)
		for k := range runs {
			runs[k] = Pair{Dist: float64(rng.Intn(m/2 + 2)), Prob: probs[k%m]} // many ties
		}
		want := slices.Clone(runs)
		for lo := 0; lo < len(want); lo += m {
			sortPairs(want[lo : lo+m])
		}
		got, inst := slices.Clone(runs), make([]int32, len(runs))
		s.SortRuns(got, inst, probs)
		if !slices.Equal(got, want) {
			t.Fatalf("m = %d: sorted runs differ from sortPairs'", m)
		}
		for k, a := range got {
			if from := runs[k/m*m+int(inst[k])]; from != a {
				t.Fatalf("m = %d: atom %d is %v, instance %d holds %v", m, k, a, inst[k], from)
			}
		}
		if n := testing.AllocsPerRun(10, func() { s.SortRuns(got, inst, probs) }); n != 0 {
			t.Fatalf("m = %d: a warm sort allocates %v times", m, n)
		}
	}
}
