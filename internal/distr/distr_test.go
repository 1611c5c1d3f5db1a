package distr

import (
	"math/rand"
	"testing"
	"unsafe"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/floatdist"
	"spatialdom/internal/uncertain"
)

// exact is d on the exact scale: one atom for each of its atoms, the i-th
// naming instance i, whose mass is Units(p); the masses, and their total.
func exact(d floatdist.Distribution) ([]Atom, []uint64, uint64) {
	atoms, c := make([]Atom, d.Len()), make([]uint64, d.Len())
	var t uint64
	for i, p := range d.Pairs() {
		atoms[i] = Atom{Dist: p.Dist, U: int32(i)}
		c[i] = Units(p.Prob)
		t += c[i]
	}
	return atoms, c, t
}

// compare is the one scan on x and y read on the exact scale, the atoms
// it consumed added to *consumed when that is non-nil.
func compare(x, y floatdist.Distribution, consumed *int64) (le, strict bool) {
	xs, cx, tx := exact(x)
	ys, cy, ty := exact(y)
	norm := NewNorm([]uint64{1}, cx, cy, tx, ty, 1)
	le, strict, n := norm.StochasticLE(xs, ys, Mass{}, Mass{}, true)
	if consumed != nil {
		*consumed += int64(n)
	}
	return le, strict
}

func stochasticLE(x, y floatdist.Distribution, consumed *int64) bool {
	le, _ := compare(x, y, consumed)
	return le
}

// equal is X = Y: the scan holds with no strict point.
func equal(x, y floatdist.Distribution) bool {
	le, strict := compare(x, y, nil)
	return le && !strict
}

func dist(vals ...float64) floatdist.Distribution {
	pairs := make([]floatdist.Pair, len(vals))
	p := 1 / float64(len(vals))
	for i, v := range vals {
		pairs[i] = floatdist.Pair{Dist: v, Prob: p}
	}
	return floatdist.MustFromPairs(pairs)
}

func TestEqual(t *testing.T) {
	a := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 2, Prob: 0.5}})
	b := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.25}, {Dist: 1, Prob: 0.25}, {Dist: 2, Prob: 0.5}}) // split atom
	c := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 2.5, Prob: 0.5}})
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.6}, {Dist: 2, Prob: 0.4}})
	if !equal(a, b) {
		t.Fatal("split atoms must compare equal")
	}
	if equal(a, c) || equal(a, d) {
		t.Fatal("different distributions compare equal")
	}
	if !equal(floatdist.Distribution{}, floatdist.Distribution{}) {
		t.Fatal("empty distributions must be equal")
	}
}

func TestStochasticLEBasic(t *testing.T) {
	x := dist(1, 2, 3)
	y := dist(2, 3, 4)
	if !stochasticLE(x, y, nil) {
		t.Fatal("shifted-up distribution must dominate")
	}
	if stochasticLE(y, x, nil) {
		t.Fatal("reverse must fail")
	}
	// Crossing CDFs: neither dominates.
	u := dist(1, 10)
	v := dist(4, 5)
	if stochasticLE(u, v, nil) || stochasticLE(v, u, nil) {
		t.Fatal("crossing CDFs must be incomparable")
	}
	// Reflexive.
	if !stochasticLE(x, x, nil) {
		t.Fatal("X <=st X must hold")
	}
}

// Figure 3 of the paper: A, B, C with distance distributions such that
// S-SD(A,B), S-SD(A,C) hold and B, C are incomparable. We encode the
// distributions directly from the figure's sorted pair lists.
func TestStochasticLEPaperFigure3(t *testing.T) {
	// Values chosen to mirror the figure's ordering: A's pairwise distances
	// are smallest overall; C beats B on the low end but loses on the top.
	A := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.25}, {Dist: 2, Prob: 0.25}, {Dist: 4, Prob: 0.25}, {Dist: 5, Prob: 0.25}})
	B := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 2, Prob: 0.25}, {Dist: 3, Prob: 0.25}, {Dist: 5, Prob: 0.25}, {Dist: 6, Prob: 0.25}})
	C := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1.5, Prob: 0.25}, {Dist: 2.5, Prob: 0.25}, {Dist: 7, Prob: 0.25}, {Dist: 8, Prob: 0.25}})
	if !stochasticLE(A, B, nil) || !stochasticLE(A, C, nil) {
		t.Fatal("A must stochastically dominate B and C")
	}
	if stochasticLE(B, C, nil) || stochasticLE(C, B, nil) {
		t.Fatal("B and C must be incomparable")
	}
}

func TestStochasticLECountsComparisons(t *testing.T) {
	x := dist(1, 2, 3)
	y := dist(4, 5, 6)
	var n int64
	stochasticLE(x, y, &n)
	if n != int64(x.Len()+y.Len()) {
		t.Fatalf("comparisons = %d, want %d", n, x.Len()+y.Len())
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
		pairsX := make([]floatdist.Pair, n)
		pairsY := make([]floatdist.Pair, n)
		p := 1 / float64(n)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 10
			pairsX[i] = floatdist.Pair{Dist: v, Prob: p}
			pairsY[i] = floatdist.Pair{Dist: v + rng.Float64()*5, Prob: p}
		}
		x := floatdist.MustFromPairs(pairsX)
		y := floatdist.MustFromPairs(pairsY)
		if !stochasticLE(x, y, nil) {
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
		mk := func(shift float64) floatdist.Distribution {
			pairs := make([]floatdist.Pair, n)
			for i := range pairs {
				pairs[i] = floatdist.Pair{Dist: rng.Float64()*10 + shift, Prob: p}
			}
			return floatdist.MustFromPairs(pairs)
		}
		x, y, z := mk(0), mk(2), mk(4)
		if stochasticLE(x, y, nil) && stochasticLE(y, z, nil) {
			tested++
			if !stochasticLE(x, z, nil) {
				t.Fatalf("transitivity violated")
			}
		}
	}
	if tested == 0 {
		t.Fatal("no transitive chains exercised")
	}
}

// SortAtoms sorts each run of a Summarize buffer in place: the distances
// come out in floatdist.Own's order, on both sides of the insertion cutoff and
// under L2, L1 and L∞; every atom still names the instance at its distance,
// each instance once a run; a warm sort allocates nothing; and an atom is
// 16 bytes, a distance and two instance indices.
func TestSortAtomsSortsRunsInPlace(t *testing.T) {
	if n := unsafe.Sizeof(Atom{}); n != 16 {
		t.Fatalf("an atom is %d bytes", n)
	}
	rng := rand.New(rand.NewSource(26))
	metrics := []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev}
	for _, m := range []int{1, 2, 10, insertionMax, insertionMax + 1, 130} {
		for _, mt := range metrics {
			pts, qpts := make([]geom.Point, m), make([]geom.Point, 3)
			for i := range pts {
				// A coarse grid, so many distances tie.
				pts[i] = geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
			}
			for j := range qpts {
				qpts[j] = geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
			}
			u, q := uncertain.MustNew(1, pts, nil), uncertain.MustNew(0, qpts, nil)
			runs := make([]Atom, q.Len()*m)
			dist := mt.Dist
			if mt == geom.Euclidean {
				dist = nil // the checker's path
			}
			Summarize(runs, make([]Stat, q.Len()), u, q, dist)
			for j := range q.Len() {
				run := runs[j*m : (j+1)*m]
				SortAtoms(run)
				want := make([]floatdist.Pair, m)
				for i := range want {
					want[i] = floatdist.Pair{Dist: mt.Dist(q.Instance(j), u.Instance(i))}
				}
				floatdist.Own(want)
				seen := make([]bool, m)
				for k, a := range run {
					if a.Dist != want[k].Dist || a.Q != 0 || a.Dist != mt.Dist(q.Instance(j), u.Instance(int(a.U))) || seen[a.U] {
						t.Fatalf("m = %d %s run %d: atom %d is %+v; floatdist.Own has %v there", m, mt.Name(), j, k, a, want[k].Dist)
					}
					seen[a.U] = true
				}
				if n := testing.AllocsPerRun(10, func() { SortAtoms(run) }); n != 0 {
					t.Fatalf("m = %d: a warm sort allocates %v times", m, n)
				}
			}
		}
	}
}
