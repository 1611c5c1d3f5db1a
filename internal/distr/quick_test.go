package distr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spatialdom/internal/ref/floatdist"
)

// genDist builds a small normalized distribution from quick-generated raw
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

// quickCfg keeps case counts reasonable while still exploring widely.
var quickCfg = &quick.Config{
	MaxCount: 2000,
	Rand:     rand.New(rand.NewSource(777)),
}

// Reflexivity: X <=st X for every distribution.
func TestQuickStochasticReflexive(t *testing.T) {
	f := func(r rawDist) bool {
		x := r.dist()
		return stochasticLE(x, x, nil)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Antisymmetry: X <=st Y and Y <=st X imply equal distributions.
func TestQuickStochasticAntisymmetric(t *testing.T) {
	f := func(a, b rawDist) bool {
		x, y := a.dist(), b.dist()
		if stochasticLE(x, y, nil) && stochasticLE(y, x, nil) {
			return equal(x, y)
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
		pairs := make([]floatdist.Pair, x.Len())
		for i := 0; i < x.Len(); i++ {
			p := x.Pair(i)
			pairs[i] = floatdist.Pair{Dist: p.Dist + c, Prob: p.Prob}
		}
		y := floatdist.MustFromPairs(pairs)
		return stochasticLE(x, y, nil)
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
		pairs := make([]floatdist.Pair, x.Len())
		for i := 0; i < x.Len(); i++ {
			p := x.Pair(i)
			pairs[i] = floatdist.Pair{Dist: p.Dist + c, Prob: p.Prob}
		}
		y := floatdist.MustFromPairs(pairs)
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

var _ = reflect.TypeOf(rawDist{}) // quick uses reflection on the generator type
