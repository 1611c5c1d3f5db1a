package distr_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialdom/internal/ref/floatdist"
)

// The float Distribution lives in internal/ref/floatdist, out of the
// product; its tests sit beside the integer-mass tests that read it as
// their reference.

// dist is the uniform distribution over vals.
func dist(vals ...float64) floatdist.Distribution {
	pairs := make([]floatdist.Pair, len(vals))
	p := 1 / float64(len(vals))
	for i, v := range vals {
		pairs[i] = floatdist.Pair{Dist: v, Prob: p}
	}
	return floatdist.MustFromPairs(pairs)
}

// rawDist builds a small normalized distribution from quick-generated raw
// values.
type rawDist struct {
	Vals  [5]uint8
	Probs [5]uint8
}

func (r rawDist) dist() floatdist.Distribution {
	pairs := make([]floatdist.Pair, 0, 5)
	total := 0.0
	for i := range r.Vals {
		p := float64(r.Probs[i]%16) + 1
		pairs = append(pairs, floatdist.Pair{Dist: float64(r.Vals[i] % 32), Prob: p})
		total += p
	}
	for i := range pairs {
		pairs[i].Prob /= total
	}
	return floatdist.MustFromPairs(pairs)
}

var quickCfg = &quick.Config{
	MaxCount: 2000,
	Rand:     rand.New(rand.NewSource(777)),
}

func TestFromPairsSortsAndDropsZero(t *testing.T) {
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 5, Prob: 0.5}, {Dist: 1, Prob: 0.25}, {Dist: 3, Prob: 0}, {Dist: 2, Prob: 0.25}})
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Pair(0).Dist != 1 || d.Pair(1).Dist != 2 || d.Pair(2).Dist != 5 {
		t.Fatalf("not sorted: %v", d)
	}
}

func TestFromPairsValidation(t *testing.T) {
	if _, err := floatdist.FromPairs([]floatdist.Pair{{Dist: 1, Prob: -0.1}}); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := floatdist.FromPairs([]floatdist.Pair{{Dist: 1, Prob: math.NaN()}}); err == nil {
		t.Fatal("NaN prob accepted")
	}
	if _, err := floatdist.FromPairs([]floatdist.Pair{{Dist: math.NaN(), Prob: 1}}); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestMustFromPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: -1}})
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
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.2}, {Dist: 2, Prob: 0.3}, {Dist: 3, Prob: 0.5}})
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
		floatdist.Distribution{}.Quantile(0.5)
	}()
}

func TestCDF(t *testing.T) {
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 3, Prob: 0.5}})
	for _, c := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.5}, {2, 0.5}, {3, 1}, {9, 1},
	} {
		if got := d.CDF(c.x); got != c.want {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestDistributionString(t *testing.T) {
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 1, Prob: 0.5}, {Dist: 2, Prob: 0.5}})
	if d.String() != "{(1, 0.5), (2, 0.5)}" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestPairsAccessor(t *testing.T) {
	d := floatdist.MustFromPairs([]floatdist.Pair{{Dist: 2, Prob: 0.5}, {Dist: 1, Prob: 0.5}})
	ps := d.Pairs()
	if len(ps) != 2 || ps[0].Dist != 1 || ps[1].Dist != 2 {
		t.Fatalf("Pairs = %v", ps)
	}
}

// CDF is a non-decreasing step function reaching the total mass.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(a rawDist) bool {
		x := a.dist()
		prev := -1.0
		for v := -1.0; v <= 35; v += 0.5 {
			c := x.CDF(v)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(x.CDF(1e9)-x.TotalProb()) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Quantile inverts the CDF: CDF(Quantile(phi)) >= phi.
func TestQuickQuantileInvertsCDF(t *testing.T) {
	f := func(a rawDist, p uint8) bool {
		x := a.dist()
		phi := (float64(p%100) + 1) / 100
		return x.CDF(x.Quantile(phi)) >= phi-1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
