package uncertain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialdom/internal/geom"
)

// rawObj is a quick-generated object on a small integer grid.
type rawObj struct {
	Xs [6]uint8
	Ys [6]uint8
	Ws [6]uint8
	N  uint8
}

func (r rawObj) build(id int) (*Object, error) {
	n := int(r.N%6) + 1
	pts := make([]geom.Point, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{float64(r.Xs[i] % 32), float64(r.Ys[i] % 32)}
		ws[i] = float64(r.Ws[i]%16) + 1
	}
	return New(id, pts, ws)
}

var quickCfg = &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(2222))}

// Probabilities always sum to one and preserve weight ratios.
func TestQuickNormalization(t *testing.T) {
	f := func(r rawObj) bool {
		o, err := r.build(1)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < o.Len(); i++ {
			sum += o.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Ratio preservation between the first two instances.
		if o.Len() >= 2 {
			w0 := float64(r.Ws[0]%16) + 1
			w1 := float64(r.Ws[1]%16) + 1
			if math.Abs(o.Prob(0)/o.Prob(1)-w0/w1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// The MBR contains every instance, and MinDist/MaxDist bracket instance
// distances from arbitrary probes.
func TestQuickMBRAndDistBounds(t *testing.T) {
	f := func(r rawObj, qx, qy uint8) bool {
		o, err := r.build(1)
		if err != nil {
			return false
		}
		for i := 0; i < o.Len(); i++ {
			if !o.MBR().ContainsPoint(o.Instance(i)) {
				return false
			}
		}
		q := geom.Point{float64(qx % 48), float64(qy % 48)}
		lo, hi := o.MinDist(q), o.MaxDist(q)
		for i := 0; i < o.Len(); i++ {
			d := geom.Dist(q, o.Instance(i))
			if d < lo-1e-9 || d > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
