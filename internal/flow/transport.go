// Package flow is Transport, the kernel that decides P-SD by Theorem 12. Its
// masses are integers (distr.Mass), so it has no epsilon: a residual is
// empty at exactly zero, and P-SD holds iff nothing is left unshipped.
package flow

import (
	"math/bits"

	"spatialdom/internal/distr"
)

// RowWords returns the number of 64-bit words in one row of a pair bitset
// over nv demand atoms.
func RowWords(nv int) int { return (nv + 63) / 64 }

// SetPair marks the pair (supply atom i, demand atom j) in a pair bitset of
// w words per row.
func SetPair(rows []uint64, w, i, j int) { rows[i*w+j>>6] |= 1 << (j & 63) }

// Transport solves the bipartite transport problem Theorem 12 reduces P-SD
// to: supply atom i may ship to demand atom j only when the pair is
// admissible, and the question is how much mass can be moved in total. It is
// max-flow on the network source → supplies → demands → sink whose middle
// arcs are unbounded, specialised to that shape: the admissible pairs are
// bitset rows (RowWords(nv) words per supply atom, bit j of row i set when
// i may ship to j), the flow is a dense nv×nu matrix, and a solve is a
// greedy fill followed by shortest augmenting paths found by a BFS that
// walks the residual graph a word of admissible arcs at a time.
//
// A Transport owns only solver state; rows, supplies and demands belong to
// the caller and are not modified. Every buffer is retained between
// solves, so a warm solve does not allocate. The zero value is ready to
// use; a Transport is not safe for concurrent use.
type Transport struct {
	nu, nv int
	f      []distr.Mass // nv×nu, column after column: f[j*nu+i] is the mass shipped from i to j
	s, d   []distr.Mass // residual supply and demand

	// BFS state: the demand atoms already reached (bitset), the supply atom
	// each was reached from, the demand atom each supply atom was reached
	// back through (−1 for a root), and the queue of supply atoms.
	seenV []uint64
	posV  []uint64 // Isolated: the demand atoms of positive mass
	fromU []int32
	viaV  []int32
	queue []int32
}

// size shapes the solver state for an nu×nv problem.
//
//nnc:coldpath amortized growth to the high-water problem size; warm solves reslice
func (t *Transport) size(nu, nv int) {
	t.nu, t.nv = nu, nv
	if cap(t.f) < nu*nv {
		t.f = make([]distr.Mass, nu*nv)
	}
	t.f = t.f[:nu*nv]
	if cap(t.s) < nu {
		t.s = make([]distr.Mass, nu)
		t.viaV = make([]int32, nu)
		t.queue = make([]int32, 0, nu)
	}
	t.s, t.viaV = t.s[:nu], t.viaV[:nu]
	if cap(t.d) < nv {
		t.d = make([]distr.Mass, nv)
		t.fromU = make([]int32, nv)
		t.seenV = make([]uint64, RowWords(nv))
		t.posV = make([]uint64, RowWords(nv))
	}
	t.d, t.fromU = t.d[:nv], t.fromU[:nv]
	t.seenV, t.posV = t.seenV[:RowWords(nv)], t.posV[:RowWords(nv)]
}

// Solve ships as much mass as the admissible pairs allow, supply atom i
// holding supply[i]·ws and demand atom j demand[j]·wd, and reports whether
// it ships everything: no supply and no demand left. The assignment stays
// readable through Flow. rows holds len(supply) rows of
// RowWords(len(demand)) words each; bits at or beyond len(demand) must be
// clear. Each push takes the whole of its bottleneck, so each augmentation
// saturates an arc, and shortest paths bound their number.
//
//nnc:hotpath
func (t *Transport) Solve(supply []uint64, ws uint64, demand []uint64, wd uint64, rows []uint64) bool {
	nu, nv := len(supply), len(demand)
	t.size(nu, nv)
	w := RowWords(nv)
	f, s, d := t.f, t.s, t.d
	clear(f)
	for i, x := range supply {
		s[i] = distr.Mul(x, ws)
	}
	for j, x := range demand {
		d[j] = distr.Mul(x, wd)
	}

	// Greedy fill: each supply atom pours into its admissible demand atoms
	// in index order. On the instances P-SD produces this already routes
	// most of the mass, and what it strands the augmenting paths re-route.
	for i := 0; i < nu; i++ {
		row := rows[i*w : (i+1)*w]
		for wi := 0; wi < w && !s[i].IsZero(); wi++ {
			for word := row[wi]; word != 0 && !s[i].IsZero(); word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				if x := s[i].Min(d[j]); !x.IsZero() {
					f[j*nu+i] = f[j*nu+i].Add(x)
					s[i] = s[i].Sub(x)
					d[j] = d[j].Sub(x)
				}
			}
		}
	}
	for t.augment(rows, w) {
	}
	for _, x := range s {
		if !x.IsZero() {
			return false
		}
	}
	for _, x := range d {
		if !x.IsZero() {
			return false
		}
	}
	return true
}

// augment finds a shortest residual path from a supply atom with mass left
// to a demand atom with room left and pushes its bottleneck along it, or
// reports that no path exists. Forward arcs i→j are the
// admissible pairs and never saturate; backward arcs j→i carry what i
// currently ships to j.
func (t *Transport) augment(rows []uint64, w int) bool {
	nu := t.nu
	f, s, d := t.f, t.s, t.d
	seenV, fromU, viaV := t.seenV, t.fromU, t.viaV
	clear(seenV)
	queue := t.queue[:0]
	for i := 0; i < nu; i++ {
		if !s[i].IsZero() {
			viaV[i] = -1
			queue = append(queue, int32(i))
		} else {
			viaV[i] = -2 // not reached
		}
	}
	for head := 0; head < len(queue); head++ {
		i := int(queue[head])
		row := rows[i*w : (i+1)*w]
		for wi, word := range row {
			fresh := word &^ seenV[wi]
			if fresh == 0 {
				continue
			}
			seenV[wi] |= fresh
			for ; fresh != 0; fresh &= fresh - 1 {
				j := wi<<6 | bits.TrailingZeros64(fresh)
				fromU[j] = int32(i)
				if !d[j].IsZero() {
					t.queue = queue
					t.push(j)
					return true
				}
				// Demand atom j is full: its mass can be taken back from
				// any supply atom shipping to it, down its column.
				for i2, x := range f[j*nu : (j+1)*nu] {
					if viaV[i2] == -2 && !x.IsZero() {
						viaV[i2] = int32(j)
						queue = append(queue, int32(i2))
					}
				}
			}
		}
	}
	t.queue = queue
	return false
}

// push augments along the path the BFS recorded from a root supply atom to
// demand atom end.
func (t *Transport) push(end int) {
	nu := t.nu
	f, fromU, viaV := t.f, t.fromU, t.viaV
	x := t.d[end]
	i := int(fromU[end])
	for viaV[i] >= 0 {
		j := int(viaV[i])
		x = x.Min(f[j*nu+i])
		i = int(fromU[j])
	}
	x = x.Min(t.s[i])

	t.d[end] = t.d[end].Sub(x)
	j := end
	for {
		i = int(fromU[j])
		f[j*nu+i] = f[j*nu+i].Add(x)
		if viaV[i] < 0 {
			break
		}
		j = int(viaV[i])
		f[j*nu+i] = f[j*nu+i].Sub(x)
	}
	t.s[i] = t.s[i].Sub(x)
}

// Flow returns the mass the last solve ships from supply atom i to demand
// atom j.
func (t *Transport) Flow(i, j int) distr.Mass { return t.f[j*t.nu+i] }

// Isolated reports whether some atom of positive mass has no admissible
// pair with a positive-mass atom of the other side. Its mass cannot ship,
// so Solve would leave at least that much unshipped; asking first saves
// the solve.
func (t *Transport) Isolated(supply, demand []uint64, rows []uint64) bool {
	t.size(len(supply), len(demand))
	pos, cols := t.posV, t.seenV // cols: what rows of positive supply reach
	clear(pos)
	clear(cols)
	w := len(cols)
	for j, p := range demand {
		if p > 0 {
			pos[j>>6] |= 1 << (j & 63)
		}
	}
	for i, p := range supply {
		if p == 0 {
			continue
		}
		var any uint64
		for wi, word := range rows[i*w : (i+1)*w] {
			word &= pos[wi]
			cols[wi] |= word
			any |= word
		}
		if any == 0 {
			return true
		}
	}
	for wi, word := range pos {
		if word&^cols[wi] != 0 {
			return true
		}
	}
	return false
}
