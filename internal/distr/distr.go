// Package distr implements the discrete distance distributions of the paper
// (U_Q and U_q, Section 2.1) and the two equivalent orders used by the
// dominance operators: the usual stochastic order (Definition 1) and the
// match order (Definition 9, Theorem 1).
//
// A Distribution is a univariate discrete random variable kept as
// probability-weighted values sorted in non-decreasing order, which lets
// every comparison run as one linear scan (the paper's optimal-in-the-worst-
// case dominance check of Section 5.1.1 / Theorem 10).
package distr

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"spatialdom/internal/geom"
	"spatialdom/internal/slab"
	"spatialdom/internal/uncertain"
)

// The comparison rule. Distances are the float64s Summarize stores and are
// compared exactly. Accumulated probability mass is compared under
// uncertain.MassBound of the number of atoms summed, and under nothing
// else; a single atom's mass is compared exactly. A scan therefore fails
// where one side's mass falls short of the other's by more than the bound,
// and also wherever a positive atom of one side lies beyond every positive
// atom of the other — a shortfall no rounding can cause, and the one the
// min and max statistics (Stat.LE) read.

// Pair is one atom of a distribution: a value (a distance) with its
// probability.
type Pair struct {
	Dist float64
	Prob float64
}

// Distribution is a discrete univariate random variable with atoms sorted
// by non-decreasing value. The zero value is an empty distribution.
type Distribution struct {
	pairs []Pair
}

var errBadProb = errors.New("distr: probabilities must be finite and non-negative")

// PairArena is a slab arena of distribution atoms: a search that owns one
// carves every atom buffer it hands to Summarize and MergeRuns out of
// it, so building distributions never touches the heap once the slabs are
// warm.
type PairArena = slab.Arena[Pair]

// Own builds a distribution that takes ownership of the given atom slice,
// sorting it in place with no copy and no validation, for atoms the caller
// has already computed from validated objects (finite values, non-negative
// probabilities); unlike FromPairs it keeps zero-probability atoms. The
// slice must not be used by the caller afterwards.
func Own(pairs []Pair) Distribution {
	sortPairs(pairs)
	return Distribution{pairs: pairs}
}

// FromPairs builds a distribution from atoms in any order. Atoms are copied
// and sorted; zero-probability atoms are dropped. The probabilities must be
// non-negative and finite but need not sum to one (sub-distributions are
// allowed in intermediate computations).
func FromPairs(pairs []Pair) (Distribution, error) {
	cp := make([]Pair, 0, len(pairs))
	for i, p := range pairs {
		if math.IsNaN(p.Prob) || math.IsInf(p.Prob, 0) || p.Prob < 0 {
			return Distribution{}, fmt.Errorf("%w: atom %d prob %g", errBadProb, i, p.Prob)
		}
		if math.IsNaN(p.Dist) {
			return Distribution{}, fmt.Errorf("distr: atom %d has NaN value", i)
		}
		if p.Prob > 0 {
			cp = append(cp, p)
		}
	}
	sortPairs(cp)
	return Distribution{pairs: cp}, nil
}

// MustFromPairs is FromPairs that panics on error.
func MustFromPairs(pairs []Pair) Distribution {
	d, err := FromPairs(pairs)
	if err != nil {
		panic(err)
	}
	return d
}

// Stat is the min, mean and max of a distribution over its positive-mass
// atoms — the three statistics of Theorem 11. A zero-probability instance
// is outside the support: it moves no cumulative mass in a stochastic scan,
// so it must not move a statistic that claims to be necessary for one.
type Stat struct{ Min, Mean, Max float64 }

// LE reports whether s's statistics are ordered against t's, for two
// distributions of n atoms in all: the necessary condition for s's
// distribution to be stochastically no larger than t's (StochasticLE).
// Min and Max compare exactly, as the scan's extremes do; the means
// compare under MeanBound.
func (s Stat) LE(t Stat, n int) bool {
	return s.Min <= t.Min && s.Max <= t.Max && s.Mean <= t.Mean+MeanBound(n, t.Max)
}

// MeanBound is how far the means Summarize computes of two distributions
// of n atoms in all, with values in [0, mx], can lie apart the wrong way
// when StochasticLE holds, or either way when Equal holds. With u = 2⁻⁵³
// and B = MassBound(n) = 2n·u: a scan that holds keeps each exact CDF gap
// within B + n·u (its own sums' rounding), and the totals within 2·
// MassBound(n+1) of each other, so the exact means, ∫(M − F) over [0, mx],
// move at most mx·(B + n·u + 2·MassBound(n+1)) = mx·(7n+4)·u; Equal's
// per-value gaps, at most n values of them, move them at most mx·(n·B +
// 2n·u). Computing the two means errs by at most mx·(n + 2|Q| + 4)·u with
// 2|Q| ≤ n. Both sums stay below mx·(n+4)·MassBound(n+1) = mx·(2n² + 10n
// + 8)·u for every n ≥ 2, with room for the rounding of this product.
func MeanBound(n int, mx float64) float64 {
	return mx * float64(n+4) * uncertain.MassBound(n+1)
}

// Summarize is the one pass over the |Q|·m instance pairs of u and q that
// everything a dominance check reads about u is derived from. It fills
// runs (length |Q|·m) with the unsorted-atoms form of the per-query-
// instance distributions — run j, runs[j·m:(j+1)·m], holds U_{q_j}'s atoms
// {δ(q_j,u_i), p(u_i)} in instance order, to be sorted by a RunSorter only if
// a scan asks — stores each U_{q_j}'s statistics in perQ[j] (skipped when
// perQ is nil), and returns the statistics of U_Q: its min is the exact
// key Algorithm 1 orders objects by, its mean is Σ_j p(q_j)·mean_j, so no
// statistic needs the |Q|·m atoms sorted. A nil dist means Euclidean. u's
// instances are read off its coordinate slab (uncertain.Object.Coords).
//
//nnc:hotpath
func Summarize(runs []Pair, perQ []Stat, u, q *uncertain.Object, dist func(a, b geom.Point) float64) Stat {
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
			run[i] = Pair{Dist: dd, Prob: pr}
			if pr > 0 {
				st.Min = min(st.Min, dd)
				st.Max = max(st.Max, dd)
				st.Mean += dd * pr
			}
		}
		if perQ != nil {
			perQ[j] = st
		}
		if qprob := q.Prob(j); qprob > 0 {
			all.Min = min(all.Min, st.Min)
			all.Max = max(all.Max, st.Max)
			all.Mean += qprob * st.Mean
		}
	}
	return all
}

// MergeRuns builds U_Q out of a Summarize buffer whose runs are each sorted
// by distance (RunSorter): run j's atoms, their probabilities scaled by
// p(q_j), merged pairwise bottom-up into one sorted distribution — the
// reference nnfunc.WeightRuns without its sort of all |Q|·m atoms. The atoms
// are WeightRuns', bit for bit; only their order inside equal distances may
// differ, which nothing that reads a distribution by value (StochasticLE,
// Equal) can see. dst (len(runs) atoms) becomes the result's storage; tmp,
// at least as long, is the merge's second buffer and stays the caller's.
// runs is left as it is.
//
//nnc:hotpath
func MergeRuns(dst, tmp, runs []Pair, m int, q *uncertain.Object) Distribution {
	n := len(runs)
	// Each pass moves the atoms to the other buffer: start in whichever one
	// makes the last pass land in dst.
	src, out := dst, tmp
	for w := m; w < n; w *= 2 {
		src, out = out, src
	}
	for j := 0; j < q.Len(); j++ {
		qprob := q.Prob(j)
		for i := j * m; i < (j+1)*m; i++ {
			src[i] = Pair{Dist: runs[i].Dist, Prob: qprob * runs[i].Prob}
		}
	}
	for w := m; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			mergeTwo(out[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, out = out, src
	}
	return Distribution{pairs: dst}
}

// mergeTwo merges the sorted a and b into out (len(a)+len(b) atoms), a's
// atom first on equal distances.
func mergeTwo(out, a, b []Pair) {
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

// Len returns the number of atoms.
func (d Distribution) Len() int { return len(d.pairs) }

// Pair returns the i-th atom in sorted order.
func (d Distribution) Pair(i int) Pair { return d.pairs[i] }

// Pairs returns the sorted atoms. The returned slice must not be modified.
func (d Distribution) Pairs() []Pair { return d.pairs }

// TotalProb returns the total probability mass.
func (d Distribution) TotalProb() float64 {
	var s float64
	for _, p := range d.pairs {
		s += p.Prob
	}
	return s
}

// Min returns the smallest value (the min distance). Panics when empty.
func (d Distribution) Min() float64 { return d.pairs[0].Dist }

// Max returns the largest value (the max distance). Panics when empty.
func (d Distribution) Max() float64 { return d.pairs[len(d.pairs)-1].Dist }

// Mean returns the expected value.
func (d Distribution) Mean() float64 {
	var s float64
	for _, p := range d.pairs {
		s += p.Dist * p.Prob
	}
	return s
}

// Quantile returns the φ-quantile per Definition 10: the value of the first
// atom at which the accumulated probability reaches φ, for 0 < φ <= 1.
// It panics on an empty distribution or φ outside (0, 1].
func (d Distribution) Quantile(phi float64) float64 {
	if len(d.pairs) == 0 {
		panic("distr: Quantile of empty distribution")
	}
	if phi <= 0 || phi > 1 {
		panic("distr: Quantile phi=" + strconv.FormatFloat(phi, 'g', -1, 64) + " outside (0,1]")
	}
	var cum float64
	bound := uncertain.MassBound(len(d.pairs))
	for _, p := range d.pairs {
		cum += p.Prob
		if cum >= phi-bound {
			return p.Dist
		}
	}
	return d.pairs[len(d.pairs)-1].Dist
}

// CDF returns Pr(X <= x).
func (d Distribution) CDF(x float64) float64 {
	var cum float64
	for _, p := range d.pairs {
		if p.Dist > x {
			break
		}
		cum += p.Prob
	}
	return cum
}

// Equal reports whether two distributions carry the same probability mass at
// the same values, merging atoms with equal values and comparing the masses
// under MassBound of the atoms of both.
func Equal(x, y Distribution) bool {
	bound := uncertain.MassBound(len(x.pairs) + len(y.pairs))
	i, j := 0, 0
	for i < len(x.pairs) || j < len(y.pairs) {
		var v float64
		switch {
		case i >= len(x.pairs):
			v = y.pairs[j].Dist
		case j >= len(y.pairs):
			v = x.pairs[i].Dist
		default:
			v = math.Min(x.pairs[i].Dist, y.pairs[j].Dist)
		}
		var px, py float64
		for i < len(x.pairs) && x.pairs[i].Dist == v {
			px += x.pairs[i].Prob
			i++
		}
		for j < len(y.pairs) && y.pairs[j].Dist == v {
			py += y.pairs[j].Prob
			j++
		}
		if math.Abs(px-py) > bound {
			return false
		}
	}
	return true
}

// StochasticLE reports whether X ≤st Y: Pr(X <= λ) >= Pr(Y <= λ) for every
// λ, under the package's comparison rule — the masses within λ compared
// under MassBound of the atoms of both, and no positive atom of Y below
// every positive one of X, or of X above every positive one of Y. Both
// distributions must carry the same total mass (within the bound) for the
// comparison to be meaningful. The check is a single merge scan over the
// sorted atoms — O(|X| + |Y|) after sorting, matching Section 5.1.1.
//
// The number of atoms the scan consumed — the instance comparisons of the
// filtering ablation (Appendix C) — is added to *consumed when it is non-nil.
func StochasticLE(x, y Distribution, consumed *int64) bool {
	xs, ys := x.pairs, y.pairs
	bound := uncertain.MassBound(len(xs) + len(ys))
	i, j := 0, 0
	var cumX, cumY float64
	le := posMax(xs) <= posMax(ys)
	for le && (i < len(xs) || j < len(ys)) {
		var v float64
		switch {
		case i >= len(xs):
			v = ys[j].Dist
		case j >= len(ys):
			v = xs[i].Dist
		default:
			v = min(xs[i].Dist, ys[j].Dist)
		}
		for i < len(xs) && xs[i].Dist <= v {
			cumX += xs[i].Prob
			i++
		}
		for j < len(ys) && ys[j].Dist <= v {
			cumY += ys[j].Prob
			j++
		}
		// A sum of non-negative floats is zero only if every term is, so
		// cumX == 0 < cumY is Y's positive mass below all of X's, exactly.
		le = !(cumX < cumY-bound || cumX == 0 && cumY > 0)
	}
	if consumed != nil {
		*consumed += int64(i + j)
	}
	return le
}

// posMax returns the value of the last atom of positive mass in sorted
// atoms, −Inf when there is none: the max statistic of Stat, which a scan
// compares exactly.
func posMax(pairs []Pair) float64 {
	for k := len(pairs) - 1; k >= 0; k-- {
		if pairs[k].Prob > 0 {
			return pairs[k].Dist
		}
	}
	return math.Inf(-1)
}

// String formats the distribution as "{(d1, p1), (d2, p2), ...}".
func (d Distribution) String() string {
	s := "{"
	for i, p := range d.pairs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("(%g, %g)", p.Dist, p.Prob)
	}
	return s + "}"
}
