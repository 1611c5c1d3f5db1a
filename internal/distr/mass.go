package distr

import "math/bits"

// The comparison rule. Distances are the float64s Summarize stores and are
// compared exactly. Masses are integers: an instance of probability p
// carries c(p) = ⌊p·2⁶⁰⌋ units, at least one when p > 0 (Units), so every
// mass is exact and sums exactly in any order. An object of total T = Σc
// stands for c/T exactly; a U_q atom weighs c(p_u), a U_Q atom c(p_q)·c(p_u)
// of the total T_Q·T_U, which the scan derives from the two instances the
// atom names (Atom) rather than reading it. Two distributions compare by
// their normalised cumulative masses, cross-multiplied (Norm), so ≤st is the
// usual stochastic order of two fixed rational distributions: a partial
// order by construction, which the mixture over the query's instances
// preserves. The masses depend only on the stored probability bits.

// MassUnit is the unit of the integer masses, 2⁻⁶⁰.
const MassUnit = 0x1p-60

// Units returns c(p) = ⌊p/MassUnit⌋, at least 1 when p > 0: scaling by a
// power of two is exact, and so is the truncation.
func Units(p float64) uint64 {
	if c := uint64(p * (1 / MassUnit)); c > 0 || p == 0 {
		return c
	}
	return 1
}

// Masses sets dst[i] to Units(probs[i]) and returns their total, below 2⁶¹
// for any probabilities uncertain.FromSlabs accepts.
func Masses(dst []uint64, probs []float64) uint64 {
	var t uint64
	for i, p := range probs {
		dst[i] = Units(p)
		t += dst[i]
	}
	return t
}

// Mass is a non-negative 128-bit integer mass.
type Mass struct{ Hi, Lo uint64 }

// Mul returns the mass a·b.
func Mul(a, b uint64) Mass {
	hi, lo := bits.Mul64(a, b)
	return Mass{hi, lo}
}

// Add returns a + b.
func (a Mass) Add(b Mass) Mass {
	lo, c := bits.Add64(a.Lo, b.Lo, 0)
	return Mass{a.Hi + b.Hi + c, lo}
}

// Sub returns a − b, for b ≤ a.
func (a Mass) Sub(b Mass) Mass {
	lo, c := bits.Sub64(a.Lo, b.Lo, 0)
	return Mass{a.Hi - b.Hi - c, lo}
}

// Less reports whether a < b.
func (a Mass) Less(b Mass) bool { return a.Hi < b.Hi || a.Hi == b.Hi && a.Lo < b.Lo }

// Min returns the smaller of a and b.
func (a Mass) Min(b Mass) Mass {
	if b.Less(a) {
		return b
	}
	return a
}

// IsZero reports whether a = 0.
func (a Mass) IsZero() bool { return a.Hi|a.Lo == 0 }

// Atom is one atom of a distribution on the exact scale: a distance and
// the query instance Q and object instance U it lies between. Its mass is
// never stored: the scan derives it as w[Q]·c[U] from the mass tables it
// is handed (Norm) — the query's masses and the object's for an atom of
// U_Q; the unit table {1} and the object's for one of a run U_q, whose Q
// is 0.
type Atom struct {
	Dist float64
	Q, U int32
}

// Norm compares the cumulative masses of two distributions X and Y whose
// totals are W·tx and W·ty for a common factor W — T_Q for two U_Q, 1 for
// two U_q: fx/tx against fy/ty, as fx·ty against fy·tx, exactly. It holds
// the mass tables the scan weighs atoms by: an atom x of X weighs
// w[x.Q]·cx[x.U], an atom y of Y w[y.Q]·cy[y.U].
type Norm struct {
	w, cx, cy []uint64
	tx, ty    uint64
	gap       Mass // W·|tx − ty|
}

// NewNorm returns the Norm of the mass tables w, cx and cy and the totals
// W·tx and W·ty.
func NewNorm(w, cx, cy []uint64, tx, ty, W uint64) Norm {
	return Norm{w, cx, cy, tx, ty, Mul(W, max(tx, ty)-min(tx, ty))}
}

// Below reports whether fx/tx < fy/ty, for fy at most Y's total. fx·ty −
// fy·tx is (fx − fy)·ty + fy·(ty − tx), whose second term is at most
// ty·gap in size, so fx and fy more than gap apart decide it without a
// product: an exact filter. The totals lie within about 2⁸·m units of 2⁶⁰
// each (uncertain.FromSlabs' bound), so the gap is narrow.
func (n *Norm) Below(fx, fy Mass) bool {
	if fy.Less(fx) {
		if n.gap.Less(fx.Sub(fy)) {
			return false
		}
	} else if n.gap.Less(fy.Sub(fx)) {
		return true
	}
	return less192(fx, n.ty, fy, n.tx)
}

// Above reports whether fx/tx > fy/ty, for fy at most Y's total, by
// Below's filter.
func (n *Norm) Above(fx, fy Mass) bool {
	if fx.Less(fy) {
		if n.gap.Less(fy.Sub(fx)) {
			return false
		}
	} else if n.gap.Less(fx.Sub(fy)) {
		return true
	}
	return less192(fy, n.tx, fx, n.ty)
}

// less192 reports whether a·b < c·d, the products in three words.
func less192(a Mass, b uint64, c Mass, d uint64) bool {
	h1, l1 := bits.Mul64(a.Lo, b)
	h2, m1 := bits.Mul64(a.Hi, b)
	h3, l2 := bits.Mul64(c.Lo, d)
	h4, m2 := bits.Mul64(c.Hi, d)
	m1, k1 := bits.Add64(m1, h1, 0)
	m2, k2 := bits.Add64(m2, h3, 0)
	_, borrow := bits.Sub64(l1, l2, 0)
	_, borrow = bits.Sub64(m1, m2, borrow)
	_, borrow = bits.Sub64(h2+k1, h4+k2, borrow)
	return borrow != 0
}

// StochasticLE is the one scan: X ≤st Y from a value at which X's
// cumulative mass is fx and Y's fy, over their atoms past it, xs and ys,
// sorted by distance and weighed by n's tables. F_X − F_Y, normalised, is least just below an atom of
// X — F_X flat and F_Y growing since the last — and greatest at one, so
// the scan compares just below each atom of X, where Y moved since the last
// comparison, and, when strict is asked for, at each distinct value of X
// until X's mass exceeds Y's there. It stops at the first point where X's
// mass falls below Y's; past X's last atom X's is all of it. le reports
// that none did; strict that X's exceeded Y's at one (always false when
// not asked for), so that le && !strict over whole distributions is X = Y.
// consumed counts the atoms a failed scan read, all of both for one that
// holds — the instance comparisons of the filtering ablation (Appendix C).
//
//nnc:hotpath
func (n *Norm) StochasticLE(xs, ys []Atom, fx, fy Mass, findStrict bool) (le, strict bool, consumed int) {
	j := 0
	for i, x := range xs {
		moved := false
		for ; j < len(ys) && ys[j].Dist < x.Dist; j++ {
			fy, moved = fy.Add(Mul(n.w[ys[j].Q], n.cy[ys[j].U])), true
		}
		if moved && n.Below(fx, fy) {
			return false, strict, i + j
		}
		fx = fx.Add(Mul(n.w[x.Q], n.cx[x.U]))
		if findStrict && !strict && (i+1 == len(xs) || xs[i+1].Dist != x.Dist) {
			at := fy
			for k := j; k < len(ys) && ys[k].Dist == x.Dist; k++ {
				at = at.Add(Mul(n.w[ys[k].Q], n.cy[ys[k].U]))
			}
			strict = n.Above(fx, at)
		}
	}
	return true, strict, len(xs) + len(ys)
}
