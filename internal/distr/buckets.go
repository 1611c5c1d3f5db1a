package distr

import (
	"math"
	"math/bits"

	"spatialdom/internal/uncertain"
)

// Buckets splits distances into N buckets of equal width from Lo, each of
// 64 cells. Cell is non-decreasing in the distance, so the distances of
// the buckets below i form a down-set — the same one for every
// distribution binned under one Buckets — and a distribution's mass on it
// is its CDF just below some value. Distances below Lo fall into the first
// cell, those past the last edge into the last.
//
// A distribution's bucket summary is N+1 Bucket entries: entry i holds
// C(i), the mass of the buckets below i, and which cells of bucket i hold
// an atom of positive mass. The masses are integers: each atom's mass in
// MassUnits, truncated (Units), so that they sum exactly in any order, and
// C(i) undershoots the exact mass of its atoms by less than one unit an
// atom. Order compares two summaries.
type Buckets struct {
	Lo, Inv float64 // the first edge, and 64·N over the span the edges cover
	N       int
}

// Bucket is one entry of a bucket summary.
type Bucket struct {
	Cum   int64  // the mass of the buckets below this one, in MassUnits
	Cells uint64 // bit c: cell c of this bucket holds an atom
}

// MassUnit is the unit of a bucket summary's masses, 2⁻⁶⁰: u/128 for the
// unit roundoff u = 2⁻⁵³, and a total mass below 8 sums without overflow.
const MassUnit = 0x1p-60

// Units returns mass x in MassUnits, truncated: scaling by a power of two
// is exact, so it loses less than one unit.
func Units(x float64) int64 { return int64(x * (1 / MassUnit)) }

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

// Add enters the atoms into the summary s, each of mass w·p, after
// clear(s): bucket i's mass goes to s[i+1].Cum until Finish. A Summarize
// buffer's run j enters with w = p(q_j), so its masses are MergeRuns'
// products. Atoms of no mass are left out.
func (b Buckets) Add(s []Bucket, atoms []Pair, w float64) {
	for _, a := range atoms {
		if a.Prob > 0 {
			c := b.Cell(a.Dist)
			s[c>>6].Cells |= 1 << (c & 63)
			s[c>>6+1].Cum += Units(w * a.Prob)
		}
	}
}

// Finish turns the bucket masses Add left in s into cumulative ones.
func (b Buckets) Finish(s []Bucket) {
	for i := 1; i < len(s); i++ {
		s[i].Cum += s[i-1].Cum
	}
}

// Order decides U ≤st V, where it can, on the bucket summaries su of U and
// sv of V, rej and acc in MassUnits. It fails (le false) where C_U(i) <
// C_V(i) − rej at some edge i. It holds where every bucket i is clear: V
// has no unit below its upper edge, or C_U(i) ≥ C_V(i) + acc (or C_V(i) =
// 0), C_U(i+1) ≥ C_V(i+1) + acc and, unless every cell of U in the bucket
// lies below every cell of V in it, C_U(i) ≥ C_V(i+1) + acc — then at every
// λ in the bucket F_U(λ) ≥ F_V(λ) + acc up to the truncation of the units
// (core's band comment has the proof, and what rej and acc must be).
// Otherwise decided is false and open has bit i set for each bucket i that
// is not clear, for Scan.
//
//nnc:hotpath
func (b Buckets) Order(su, sv []Bucket, rej, acc int64) (le, decided bool, open uint64) {
	for i := 0; i+1 < len(su) && i+1 < len(sv); i++ {
		cu0, cv0, cu1, cv1 := su[i].Cum, sv[i].Cum, su[i+1].Cum, sv[i+1].Cum
		if cu1 < cv1-rej {
			return false, true, 0
		}
		if cv1 != 0 && !((cv0 == 0 || cu0 >= cv0+acc) && cu1 >= cv1+acc && (below(su[i].Cells, sv[i].Cells) || cu0 >= cv1+acc)) {
			open |= 1 << i
		}
	}
	return open == 0, open == 0, open
}

// below reports whether every cell set in u lies below every cell set in
// v: then every atom of U in the bucket is below every atom of V in it.
func below(u, v uint64) bool {
	return u == 0 || v == 0 || bits.Len64(u) <= bits.TrailingZeros64(v)
}

// Gather fills dst (as long as runs) with the atoms of positive mass of a
// Summarize buffer — run j of m atoms, weighted by p(q_j) as MergeRuns
// weighs them — whose bucket is open, sorted by distance, and returns
// them. perQ holds each run's least and largest distance of positive
// mass: a run whose range lies outside the open buckets is skipped whole.
//
//nnc:hotpath
func (b Buckets) Gather(dst, runs []Pair, m int, q *uncertain.Object, perQ []Stat, open uint64) []Pair {
	first, last := bits.TrailingZeros64(open), bits.Len64(open)-1
	n := 0
	for j, st := range perQ {
		if w := q.Prob(j); w > 0 && b.Cell(st.Max)>>6 >= first && b.Cell(st.Min)>>6 <= last {
			for _, a := range runs[j*m : (j+1)*m] {
				if p := w * a.Prob; p > 0 && open>>(b.Cell(a.Dist)>>6)&1 != 0 {
					dst[n] = Pair{Dist: a.Dist, Prob: p}
					n++
				}
			}
		}
	}
	if n <= gatherInsertion {
		insertionSort(dst[:n])
	} else {
		sortPairs(dst[:n])
	}
	return dst[:n]
}

// gatherInsertion is the most atoms Gather sorts by insertion. It is above
// sortPairs' cutoff: on the disk_cold shape a scan gathers ≈ 45 atoms, and
// insertion sorts them in under half of pdqsort's time (EXPERIMENTS.md).
const gatherInsertion = 64

// Filter fills dst with the atoms of positive mass of sorted (a built
// U_Q) whose bucket is open, in their order, and returns them.
//
//nnc:hotpath
func (b Buckets) Filter(dst, sorted []Pair, open uint64) []Pair {
	n := 0
	for _, a := range sorted {
		if a.Prob > 0 && open>>(b.Cell(a.Dist)>>6)&1 != 0 {
			dst[n] = a
			n++
		}
	}
	return dst[:n]
}

// Scan finishes what Order left open. us and vs are U's and V's atoms in
// the open buckets (Gather); Scan walks them bucket by bucket, from each
// bucket's cumulative masses at its lower edge, and compares the two
// cumulative masses at every atom, as StochasticLE does, under Order's rej
// and acc. It fails where one falls short by more than rej, and holds
// where none falls short by acc; otherwise decided is false.
//
//nnc:hotpath
func (b Buckets) Scan(su, sv []Bucket, us, vs []Pair, rej, acc int64) (le, decided bool) {
	i, j, bucket := 0, 0, -1
	le = true
	var fu, fv int64
	for i < len(us) || j < len(vs) {
		var x float64
		switch {
		case i >= len(us):
			x = vs[j].Dist
		case j >= len(vs):
			x = us[i].Dist
		default:
			x = min(us[i].Dist, vs[j].Dist)
		}
		if k := b.Cell(x) >> 6; k != bucket {
			bucket, fu, fv = k, su[k].Cum, sv[k].Cum
		}
		for ; i < len(us) && us[i].Dist <= x; i++ {
			fu += Units(us[i].Prob)
		}
		for ; j < len(vs) && vs[j].Dist <= x; j++ {
			fv += Units(vs[j].Prob)
		}
		if fu < fv-rej {
			return false, true
		}
		le = le && (fv == 0 || fu >= fv+acc)
	}
	return le, le
}
