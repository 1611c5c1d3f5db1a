package distr

import (
	"math"
	"math/bits"
)

// Buckets splits distances into N buckets of equal width from Lo, each of
// 64 cells. Cell is non-decreasing in the distance, so the distances of
// the buckets below i form a down-set — the same one for every
// distribution binned under one Buckets — and a distribution's mass on it
// is its CDF just below some value. Distances below Lo fall into the first
// cell, those past the last edge into the last.
//
// A distribution's bucket summary is N+1 Bucket entries: entry i holds
// C(i), the exact integer mass of the buckets below i, and which cells of
// bucket i hold an atom of positive mass. Order compares two summaries,
// and Scan the atoms of the buckets Order leaves open, on the masses and
// by the Norm the full scan uses, so the two decide alike.
type Buckets struct {
	Lo, Inv float64 // the first edge, and 64·N over the span the edges cover
	N       int
}

// Bucket is one entry of a bucket summary.
type Bucket struct {
	Cum   Mass   // the mass of the buckets below this one
	Cells uint64 // bit c: cell c of this bucket holds an atom of positive mass
}

// NewBuckets returns n buckets over [lo, hi], or false when the span is
// degenerate: empty, or too narrow or too wide for the cells' width to be
// a positive finite float.
func NewBuckets(lo, hi float64, n int) (Buckets, bool) {
	inv := float64(64*n) / (hi - lo)
	return Buckets{Lo: lo, Inv: inv, N: n}, inv > 0 && !math.IsInf(inv, 1)
}

// Cell returns the cell of distance d, floor((d−Lo)·Inv) clamped into
// [0, 64·N): a rounded subtraction, a product by a positive constant, the
// clamps and the truncation each keep "≤", so Cell does too. Its bucket is
// Cell/64.
func (b Buckets) Cell(d float64) int {
	x := (d - b.Lo) * b.Inv
	if top := float64(64*b.N - 1); x > top {
		x = top
	}
	return max(int(x), 0)
}

// Add enters a run's atoms into the summary s, after clear(s), an atom of
// instance U weighing w·c[U], so a Summarize buffer's run j entering with
// w = c(p_{q_j}) gives U_Q's masses. Bucket i's mass goes to s[i+1].Cum
// until Finish. Atoms of no mass are left out.
func (b Buckets) Add(s []Bucket, run []Atom, w uint64, c []uint64) {
	for _, a := range run {
		if x := c[a.U]; x > 0 {
			k := b.Cell(a.Dist)
			s[k>>6].Cells |= 1 << (k & 63)
			s[k>>6+1].Cum = s[k>>6+1].Cum.Add(Mul(w, x))
		}
	}
}

// Finish turns the bucket masses Add left in s into cumulative ones.
func (b Buckets) Finish(s []Bucket) {
	for i := 1; i < len(s); i++ {
		s[i].Cum = s[i].Cum.Add(s[i-1].Cum)
	}
}

// Order decides what it can of X ≤st Y on the bucket summaries sx and sy,
// compared by n. It fails (le false) where an edge has C_X(i) below
// C_Y(i). Otherwise bucket i is clear when at every λ in it F_X(λ) ≥
// F_Y(λ): Y has no atom in it, so that F_Y is flat there; or X's cells in
// it all lie below Y's, so that F_X reaches C_X(i+1) ≥ C_Y(i+1) before F_Y
// leaves C_Y(i) ≤ C_X(i) — and exceeds it in between, a strict point; or
// C_X(i) ≥ C_Y(i+1). strict reports a strict point at an edge or in a
// bucket of the second kind; open has bit i set for each bucket that is
// not clear, for Scan.
//
//nnc:hotpath
func (b Buckets) Order(sx, sy []Bucket, n *Norm) (le, strict bool, open uint64) {
	for i := 0; i+1 < len(sx) && i+1 < len(sy); i++ {
		if n.Below(sx[i+1].Cum, sy[i+1].Cum) {
			return false, strict, 0
		}
		switch y := sy[i].Cells; {
		case y == 0:
		case below(sx[i].Cells, y):
			strict = true
		case n.Below(sx[i].Cum, sy[i+1].Cum):
			open |= 1 << i
		}
		strict = strict || n.Above(sx[i+1].Cum, sy[i+1].Cum)
	}
	return true, strict, open
}

// below reports whether every cell set in x lies below every cell set in
// y: then every atom of X in the bucket is below every atom of Y in it.
func below(x, y uint64) bool {
	return x == 0 || y == 0 || bits.Len64(x) <= bits.TrailingZeros64(y)
}

// Gather fills dst (as long as runs) with the atoms of positive mass of a
// Summarize buffer — run j of m atoms, an atom of instance U weighing
// cq[j]·c[U] — whose bucket is open, sorted by distance and copied with
// Q = j as MergeRuns copies them, and returns them. perQ holds each run's
// least and largest distance of positive mass: a run whose range lies
// outside the open buckets is skipped whole.
//
//nnc:hotpath
func (b Buckets) Gather(dst, runs []Atom, m int, cq, c []uint64, perQ []Stat, open uint64) []Atom {
	first, last := bits.TrailingZeros64(open), bits.Len64(open)-1
	n := 0
	for j, st := range perQ {
		if cq[j] > 0 && b.Cell(st.Max)>>6 >= first && b.Cell(st.Min)>>6 <= last {
			for _, a := range runs[j*m : (j+1)*m] {
				if c[a.U] > 0 && open>>(b.Cell(a.Dist)>>6)&1 != 0 {
					dst[n] = Atom{Dist: a.Dist, Q: int32(j), U: a.U}
					n++
				}
			}
		}
	}
	SortAtoms(dst[:n])
	return dst[:n]
}

// Filter fills dst with the atoms of positive mass of sorted (a built
// U_Q, an atom weighing w[Q]·c[U]) whose bucket is open, in their order,
// and returns them.
//
//nnc:hotpath
func (b Buckets) Filter(dst, sorted []Atom, w, c []uint64, open uint64) []Atom {
	n := 0
	for _, a := range sorted {
		if w[a.Q] > 0 && c[a.U] > 0 && open>>(b.Cell(a.Dist)>>6)&1 != 0 {
			dst[n] = a
			n++
		}
	}
	return dst[:n]
}

// Scan finishes what Order left open: xs and ys are X's and Y's atoms in
// the open buckets (Gather), and each open bucket is one StochasticLE from
// its lower edge's cumulative masses over the atoms in it. It reports
// whether every scan held and whether one found a strict point.
//
//nnc:hotpath
func (b Buckets) Scan(sx, sy []Bucket, xs, ys []Atom, open uint64, n *Norm) (le, strict bool) {
	for ; open != 0; open &= open - 1 {
		k := bits.TrailingZeros64(open)
		i, j := b.inBucket(xs, k), b.inBucket(ys, k)
		le, s, _ := n.StochasticLE(xs[:i], ys[:j], sx[k].Cum, sy[k].Cum, true)
		if !le {
			return false, strict
		}
		strict = strict || s
		xs, ys = xs[i:], ys[j:]
	}
	return true, strict
}

// inBucket returns how many of the sorted atoms, whose buckets are k or
// above, lie in bucket k.
func (b Buckets) inBucket(atoms []Atom, k int) int {
	i := 0
	for i < len(atoms) && b.Cell(atoms[i].Dist)>>6 == k {
		i++
	}
	return i
}
