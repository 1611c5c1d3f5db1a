package core

import (
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// FuzzSSDBucketRung holds S-SD's mass rung to the exact scan it stands in
// for. Wherever it decides a pair of objects (Checker.massOrder: the
// bucket summaries, then the atoms of the buckets they leave open) and
// rung 1 lets the pair through, distr.StochasticLE on the built U_Q and V_Q
// gives the same verdict. The data is made to tie: integer coordinates,
// copies and copies nudged by an ulp, objects that mirror each other
// through the query, uniform weights (equal masses at equal distances,
// where the two orders of the sums differ in their last bits) beside
// skewed and zero ones, and objects far past the edges.
func FuzzSSDBucketRung(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		grid := rng.Intn(2) == 0
		coord := func(c, spread float64) float64 {
			x := c + (rng.Float64()*2-1)*spread
			if grid {
				x = math.Round(x)
			}
			return x
		}
		weights := func(n int) []float64 {
			if rng.Intn(2) == 0 {
				return nil
			}
			ws := make([]float64, n)
			for i := range ws {
				ws[i] = float64(1 + rng.Intn(4))
			}
			if n > 1 && rng.Intn(3) == 0 {
				ws[rng.Intn(n)] = 0
			}
			return ws
		}
		cloud := func(id, n int, c geom.Point, spread float64) *uncertain.Object {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{coord(c[0], spread), coord(c[1], spread)}
			}
			return uncertain.MustNew(id, pts, weights(n))
		}
		q := cloud(0, 1+rng.Intn(6), geom.Point{20, 20}, 4)
		var objs []*uncertain.Object
		add := func(pts []geom.Point, probs []float64) {
			objs = append(objs, uncertain.MustNew(len(objs)+1, pts, probs))
		}
		for range 4 + rng.Intn(4) {
			o := cloud(0, 1+rng.Intn(8), geom.Point{20 + rng.NormFloat64()*8, 20 + rng.NormFloat64()*8}, rng.Float64()*6)
			add(o.Points(), o.Probs())
			switch rng.Intn(4) {
			case 0: // a copy
				add(o.Points(), o.Probs())
			case 1: // a copy one instance of which moved by an ulp
				pts := o.Points()
				pts[0] = geom.Point{math.Nextafter(pts[0][0], math.Inf(1)), pts[0][1]}
				add(pts, o.Probs())
			case 2: // the mirror image through the query's first instance
				pts := o.Points()
				for i, p := range pts {
					c := q.Instance(0)
					pts[i] = geom.Point{2*c[0] - p[0], 2*c[1] - p[1]}
				}
				add(pts, o.Probs())
			}
		}
		add([]geom.Point{{500, 500}, {520, 480}}, nil) // past every edge
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			var sc CheckScratch
			c := sc.Checker(q, SSD, AllFilters, m)
			sums := make([]*objCache, len(objs))
			for i, o := range objs {
				sums[i] = c.summaryOf(o)
			}
			if c.bk.N == 0 {
				continue // the first object's span is degenerate: no rung
			}
			// Every verdict of the rung first, while no U_Q is built and
			// massOrder scans the open buckets.
			type verdict struct{ le, decided bool }
			pairs := make([]verdict, len(objs)*len(objs))
			for i, su := range sums {
				for j, sv := range sums {
					if i != j {
						le, decided := c.massOrder(su, sv)
						pairs[i*len(objs)+j] = verdict{le, decided}
					}
				}
			}
			for i, su := range sums {
				for j, sv := range sums {
					v := pairs[i*len(objs)+j]
					if i == j || !v.decided || v.le && !su.stat.LE(sv.stat, len(su.runs)+len(sv.runs)) {
						continue
					}
					if exact := distr.StochasticLE(c.distQ(su), c.distQ(sv), nil); exact != v.le {
						t.Fatalf("%s: the mass rung says %v ≤st %v is %v, the scan %v", m.Name(), objs[i], objs[j], v.le, exact)
					}
				}
			}
		}
	})
}
