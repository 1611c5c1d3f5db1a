// Package floatdist is the float form of a discrete distance distribution
// that the reference nearest-neighbour functions (internal/ref/nnfunc) and
// the tests read: probability-weighted values sorted in non-decreasing
// order. The dominance checks never build one: they compare the integer
// masses of distr's Atoms.
package floatdist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"spatialdom/internal/uncertain"
)

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

var errBadProb = errors.New("floatdist: probabilities must be finite and non-negative")

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
			return Distribution{}, fmt.Errorf("floatdist: atom %d has NaN value", i)
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

// insertionMax is the most atoms sortPairs sorts by straight insertion;
// past it, the stdlib's pattern-defeating quicksort. It is the cutoff of
// distr.SortAtoms, so that the two sort equal distances alike.
const insertionMax = 64

// sortPairs sorts a Distribution's atoms by non-decreasing value.
func sortPairs(p []Pair) {
	if len(p) > insertionMax {
		slices.SortFunc(p, func(a, b Pair) int { return cmpDist(a.Dist, b.Dist) })
		return
	}
	for i := 1; i < len(p); i++ {
		a, j := p[i], i
		for ; j > 0 && a.Dist < p[j-1].Dist; j-- {
			p[j] = p[j-1]
		}
		p[j] = a
	}
}

// cmpDist is cmp.Compare for values that are never NaN.
func cmpDist(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
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
		panic("floatdist: Quantile of empty distribution")
	}
	if phi <= 0 || phi > 1 {
		panic("floatdist: Quantile phi=" + strconv.FormatFloat(phi, 'g', -1, 64) + " outside (0,1]")
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
