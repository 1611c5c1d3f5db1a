package core

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// FuzzSSDBucketRung holds S-SD's mass rung, the scan and SS-SD to a
// rational reference of the integer-mass rule (ratQ): each stored
// probability p stands for c(p) = distr.Units(p) of its object's total.
// Wherever the rung decides a pair of objects (Checker.massOrder: the
// bucket summaries, then the atoms of the buckets they leave open), its
// U_Q ≤st V_Q and its strict point are the reference's; so are the scan's
// on the built U_Q and V_Q, and the S-SD and SS-SD verdicts, which are
// never "yes" on U_Q = V_Q. The data is made to tie: integer coordinates,
// copies, copies nudged by an ulp and copies with 2⁻⁵² to 2⁻¹⁷ of mass
// moved, objects that mirror each other through the query, uniform
// weights (equal masses at equal distances) beside skewed and zero ones,
// and objects far past the edges.
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
			switch rng.Intn(5) {
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
			case 3: // a copy with 2⁻⁵² to 2⁻¹⁷ of mass moved between instances
				ps := slices.Clone(o.Probs())
				if d := math.Ldexp(1, -52+rng.Intn(36)); len(ps) > 1 && ps[0] > d {
					ps[0], ps[len(ps)-1] = ps[0]-d, ps[len(ps)-1]+d
				}
				add(o.Points(), ps)
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
			// Every verdict of the rung first, while no U_Q is built and
			// massOrder scans the open buckets; none where the first
			// object's span is degenerate.
			type verdict struct{ le, strict, decided bool }
			pairs := make([]verdict, len(objs)*len(objs))
			for i, su := range sums {
				for j, sv := range sums {
					if i != j && c.bk.N > 0 {
						le, strict, decided := c.massOrder(su, sv)
						pairs[i*len(objs)+j] = verdict{le, strict, decided}
					}
				}
			}
			exact := make([]ratDist, len(objs))
			for i, o := range objs {
				exact[i] = ratQ(q, o, m, -1)
			}
			var ssc CheckScratch
			cs := ssc.Checker(q, SSSD, AllFilters, m)
			for i, su := range sums {
				for j, sv := range sums {
					u, v := objs[i], objs[j]
					wantLE, eq := exact[i].deficit(exact[j]).Sign() <= 0, exact[i].equal(exact[j])
					n := c.qNorm(su, sv)
					le, strict, _ := n.StochasticLE(c.distQ(su), c.distQ(sv), distr.Mass{}, distr.Mass{}, true)
					if le != wantLE || le && strict == eq {
						t.Fatalf("%s: the scan says %v ≤st %v is %v, strictly %v; exactly %v, equal %v", m.Name(), u, v, le, strict, wantLE, eq)
					}
					if r := pairs[i*len(objs)+j]; r.decided && (r.le != wantLE || r.le && r.strict == eq) {
						t.Fatalf("%s: the mass rung says %v ≤st %v is %v, strictly %v; exactly %v, equal %v", m.Name(), u, v, r.le, r.strict, wantLE, eq)
					}
					s, ss := c.Dominates(u, v), cs.Dominates(u, v)
					if s != (wantLE && !eq) {
						t.Fatalf("%s: S-SD says %v over %v is %v; exactly ≤st %v, equal %v", m.Name(), u, v, s, wantLE, eq)
					}
					wantSS := !eq
					for k := 0; k < q.Len(); k++ {
						wantSS = wantSS && ratQ(q, u, m, k).deficit(ratQ(q, v, m, k)).Sign() <= 0
					}
					if ss != wantSS {
						t.Fatalf("%s: SS-SD says %v over %v is %v, exactly %v", m.Name(), u, v, ss, wantSS)
					}
				}
			}
		}
	})
}

// ratDist is a distribution in exact rationals: its distinct values in
// increasing order, the mass at each, and the normalised CDF there.
type ratDist struct {
	vals      []float64
	mass, cdf []*big.Rat
}

// ratQ is U_Q of u from its definition, or U_q for query instance j ≥ 0:
// the distance from every query instance (or q_j) to every instance of u,
// weighed by the product of the two integer masses distr.Units gives the
// stored probabilities (or u's alone), its values of no mass dropped.
func ratQ(q, u *uncertain.Object, m geom.Metric, j int) ratDist {
	at := map[float64]*big.Rat{}
	for k := range q.Len() {
		if j >= 0 && k != j {
			continue
		}
		pq := big.NewRat(1, 1)
		if j < 0 {
			pq.SetUint64(distr.Units(q.Prob(k)))
		}
		for i := range u.Len() {
			d := m.Dist(q.Instance(k), u.Instance(i))
			if at[d] == nil {
				at[d] = new(big.Rat)
			}
			p := new(big.Rat).SetUint64(distr.Units(u.Prob(i)))
			at[d].Add(at[d], p.Mul(p, pq))
		}
	}
	return newRatDist(at)
}

// newRatDist is the ratDist of the masses at holds by value.
func newRatDist(at map[float64]*big.Rat) ratDist {
	var r ratDist
	for d, a := range at {
		if a.Sign() > 0 {
			r.vals = append(r.vals, d)
		}
	}
	slices.Sort(r.vals)
	total := new(big.Rat)
	for _, d := range r.vals {
		r.mass = append(r.mass, at[d])
		total.Add(total, at[d])
	}
	sum := new(big.Rat)
	for _, a := range r.mass {
		sum.Add(sum, a)
		r.cdf = append(r.cdf, new(big.Rat).Quo(sum, total))
	}
	return r
}

// deficit is the most by which y's normalised CDF exceeds x's at a value
// of either: at most zero exactly when x ≤st y.
func (x ratDist) deficit(y ratDist) *big.Rat {
	zero := new(big.Rat)
	cdf := func(d ratDist, i int) *big.Rat {
		if i == 0 {
			return zero
		}
		return d.cdf[i-1]
	}
	worst := new(big.Rat).Neg(big.NewRat(1, 1))
	for i, j := 0, 0; i < len(x.vals) || j < len(y.vals); {
		v := math.Inf(1)
		if i < len(x.vals) {
			v = x.vals[i]
		}
		if j < len(y.vals) {
			v = min(v, y.vals[j])
		}
		for ; i < len(x.vals) && x.vals[i] <= v; i++ {
		}
		for ; j < len(y.vals) && y.vals[j] <= v; j++ {
		}
		if d := new(big.Rat).Sub(cdf(y, j), cdf(x, i)); d.Cmp(worst) > 0 {
			worst = d
		}
	}
	return worst
}

// equal reports whether x and y put the same normalised mass at every value.
func (x ratDist) equal(y ratDist) bool {
	return slices.Equal(x.vals, y.vals) && slices.EqualFunc(x.cdf, y.cdf, func(a, b *big.Rat) bool { return a.Cmp(b) == 0 })
}
