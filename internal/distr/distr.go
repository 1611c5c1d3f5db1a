// Package distr implements the discrete distance distributions of the paper
// (U_Q and U_q, Section 2.1) and the usual stochastic order (Definition 1)
// the dominance operators compare them by.
//
// The checker's distributions are Atoms — a distance and the two instances
// it lies between, sorted in place by SortAtoms — compared by one linear
// scan (Norm.StochasticLE; the paper's optimal-in-the-worst-case dominance
// check of Section 5.1.1 / Theorem 10) that derives each atom's exact
// integer mass from the instances' masses — mass.go states the rule. The
// float form the reference's nearest-neighbour functions read is
// internal/ref/floatdist, outside the product.
package distr

import (
	"math"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Stat is the min, mean and max of a distribution over its positive-mass
// atoms — the three statistics of Theorem 11. A zero-probability instance
// is outside the support: it moves no cumulative mass in a stochastic scan,
// so it must not move a statistic that claims to be necessary for one.
type Stat struct{ Min, Mean, Max float64 }

// LE reports whether s's statistics are ordered against t's, for two
// distributions of n atoms in all: the necessary condition for s's
// distribution to be stochastically no larger than t's. Min and Max
// compare exactly, as the scan's extremes do; the means compare under
// MeanBound.
func (s Stat) LE(t Stat, n int) bool {
	return s.Min <= t.Min && s.Max <= t.Max && s.Mean <= t.Mean+MeanBound(n, t.Max)
}

// MeanBound is how far the float means Summarize computes of two
// distributions of n atoms in all, with values in [0, mx], can lie apart
// the wrong way when X ≤st Y holds on their integer masses. With u = 2⁻⁵³:
// an object's stored probabilities sum to within 3m·u of one (uncertain.
// FromSlabs), and each c(p) is p·2⁶⁰ within one unit, u/128, so c/T
// differs from p by under 3.1m·u·p + u/64. The exact means of the integer
// masses, which X ≤st Y orders, thus lie within mx·4.1(n + 2|Q|)·u of the
// stored floats' exact means, and Summarize computes these within mx·(n +
// 2|Q| + 4)·u, with 2|Q| ≤ n. Together that stays below mx·(n+4)·(n+1)·
// 2⁻⁵² = mx·(2n² + 10n + 8)·u for every n ≥ 2.
func MeanBound(n int, mx float64) float64 {
	return mx * float64(n+4) * (float64(n+1) * (256 * MassUnit))
}

// Summarize is the one pass over the |Q|·m instance pairs of u and q that
// everything a dominance check reads about u is derived from. It fills
// runs (length |Q|·m) with the unsorted-atoms form of the per-query-
// instance distributions — run j, runs[j·m:(j+1)·m], holds U_{q_j}'s atoms
// {δ(q_j,u_i), U: i} in instance order, to be sorted in place by SortAtoms
// only if a scan asks — stores each U_{q_j}'s statistics in perQ[j], and
// returns the statistics of U_Q: its min is the exact key Algorithm 1
// orders objects by, its mean is Σ_j p(q_j)·mean_j, so no statistic needs
// the |Q|·m atoms sorted. A nil dist means Euclidean. u's instances are
// read off its coordinate slab (uncertain.Object.Coords).
//
//nnc:hotpath
func Summarize(runs []Atom, perQ []Stat, u, q *uncertain.Object, dist func(a, b geom.Point) float64) Stat {
	coords, probs, d := u.Coords(), u.Probs(), u.Dim()
	m := len(probs)
	all := Stat{Min: math.Inf(1), Max: math.Inf(-1)}
	for j := 0; j < q.Len(); j++ {
		qp := q.Instance(j)
		run := runs[j*m : (j+1)*m]
		st := Stat{Min: math.Inf(1), Max: math.Inf(-1)}
		for i, pr := range probs {
			p := coords[i*d : (i+1)*d : (i+1)*d]
			var dd float64
			if dist == nil {
				// geom.Dist(qp, p) term for term, without the call.
				var s float64
				p := p[:len(qp)]
				for k, x := range qp {
					e := x - p[k]
					s += e * e
				}
				dd = math.Sqrt(s)
			} else {
				dd = dist(qp, p)
			}
			run[i] = Atom{Dist: dd, U: int32(i)}
			if pr > 0 {
				st.Min = min(st.Min, dd)
				st.Max = max(st.Max, dd)
				st.Mean += dd * pr
			}
		}
		perQ[j] = st
		if qprob := q.Prob(j); qprob > 0 {
			all.Min = min(all.Min, st.Min)
			all.Max = max(all.Max, st.Max)
			all.Mean += qprob * st.Mean
		}
	}
	return all
}

// MergeRuns builds U_Q out of runs each sorted by SortAtoms, m atoms each:
// run j's atoms copied with Q = j, so that they weigh c(p_{q_j})·c(p_u),
// merged pairwise bottom-up into one sorted slice — without a sort of all
// |Q|·m atoms. Inside equal distances the order is the runs', which no scan
// can see. dst (len(runs) atoms) becomes the result's storage; tmp, at
// least as long, is the merge's second buffer and stays the caller's. runs
// is left as it is.
//
//nnc:hotpath
func MergeRuns(dst, tmp, runs []Atom, m int) []Atom {
	n := len(runs)
	// Each pass moves the atoms to the other buffer: start in whichever one
	// makes the last pass land in dst.
	src, out := dst, tmp
	for w := m; w < n; w *= 2 {
		src, out = out, src
	}
	for lo, j := 0, int32(0); lo < n; lo, j = lo+m, j+1 {
		for i, a := range runs[lo : lo+m] {
			src[lo+i] = Atom{Dist: a.Dist, Q: j, U: a.U}
		}
	}
	for w := m; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			mergeTwo(out[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, out = out, src
	}
	return dst
}

// mergeTwo merges the sorted a and b into out (len(a)+len(b) atoms), a's
// atom first on equal distances.
func mergeTwo(out, a, b []Atom) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Dist < a[i].Dist {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
