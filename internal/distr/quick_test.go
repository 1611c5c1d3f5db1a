package distr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genDist builds a small normalized distribution from quick-generated raw
// values.
type rawDist struct {
	Vals  [5]uint8
	Probs [5]uint8
}

func (r rawDist) dist() Distribution {
	pairs := make([]Pair, 0, 5)
	total := 0.0
	for i := range r.Vals {
		p := float64(r.Probs[i]%16) + 1
		pairs = append(pairs, Pair{Dist: float64(r.Vals[i] % 32), Prob: p})
		total += p
	}
	for i := range pairs {
		pairs[i].Prob /= total
	}
	return MustFromPairs(pairs)
}

// quickCfg keeps case counts reasonable while still exploring widely.
var quickCfg = &quick.Config{
	MaxCount: 2000,
	Rand:     rand.New(rand.NewSource(777)),
}

// Reflexivity: X <=st X for every distribution.
func TestQuickStochasticReflexive(t *testing.T) {
	f := func(r rawDist) bool {
		x := r.dist()
		return StochasticLE(x, x, nil)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Antisymmetry: X <=st Y and Y <=st X imply equal distributions.
func TestQuickStochasticAntisymmetric(t *testing.T) {
	f := func(a, b rawDist) bool {
		x, y := a.dist(), b.dist()
		if StochasticLE(x, y, nil) && StochasticLE(y, x, nil) {
			return Equal(x, y)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Shift monotonicity: X <=st X+c for any non-negative shift c.
func TestQuickShiftDominates(t *testing.T) {
	f := func(a rawDist, shift uint8) bool {
		x := a.dist()
		c := float64(shift % 10)
		pairs := make([]Pair, x.Len())
		for i := 0; i < x.Len(); i++ {
			p := x.Pair(i)
			pairs[i] = Pair{Dist: p.Dist + c, Prob: p.Prob}
		}
		y := MustFromPairs(pairs)
		return StochasticLE(x, y, nil)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Mean is linear under shift; quantiles shift exactly.
func TestQuickShiftStats(t *testing.T) {
	f := func(a rawDist, shift uint8) bool {
		x := a.dist()
		c := float64(shift % 10)
		pairs := make([]Pair, x.Len())
		for i := 0; i < x.Len(); i++ {
			p := x.Pair(i)
			pairs[i] = Pair{Dist: p.Dist + c, Prob: p.Prob}
		}
		y := MustFromPairs(pairs)
		if math.Abs(y.Mean()-(x.Mean()+c)) > 1e-9 {
			return false
		}
		for _, phi := range []float64{0.25, 0.5, 1} {
			if math.Abs(y.Quantile(phi)-(x.Quantile(phi)+c)) > 1e-9 {
				return false
			}
		}
		return y.Min() == x.Min()+c && y.Max() == x.Max()+c
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
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

// Match tuples always cover exactly the two marginals when they exist.
func TestQuickMatchMarginals(t *testing.T) {
	f := func(a, b rawDist) bool {
		x, y := a.dist(), b.dist()
		m, ok := Match(x, y)
		if !ok {
			return true
		}
		var total float64
		for _, tp := range m {
			if tp.P < 0 {
				return false
			}
			total += tp.P
		}
		return math.Abs(total-1) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

var _ = reflect.TypeOf(rawDist{}) // quick uses reflection on the generator type
