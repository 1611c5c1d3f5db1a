package flow

import "math/bits"

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
// i may ship to j), the flow is a dense nu×nv matrix, and a solve is a
// greedy fill followed by shortest augmenting paths found by a BFS that
// walks the residual graph a word of admissible arcs at a time.
//
// A Transport owns only solver state; rows, supplies and demands belong to
// the caller and are not modified. Every buffer is retained between
// solves, so a warm solve does not allocate. The zero value is ready to
// use; a Transport is not safe for concurrent use.
type Transport struct {
	nu, nv int
	f      []float64 // nu×nv, row-major: mass shipped from i to j
	s, d   []float64 // residual supply and demand

	// BFS state: the demand atoms already reached (bitset), the supply atom
	// each was reached from, the demand atom each supply atom was reached
	// back through (−1 for a root), and the queue of supply atoms.
	seenV []uint64
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
		t.f = make([]float64, nu*nv)
	}
	t.f = t.f[:nu*nv]
	if cap(t.s) < nu {
		t.s = make([]float64, nu)
		t.viaV = make([]int32, nu)
		t.queue = make([]int32, 0, nu)
	}
	t.s, t.viaV = t.s[:nu], t.viaV[:nu]
	if cap(t.d) < nv {
		t.d = make([]float64, nv)
		t.fromU = make([]int32, nv)
		t.seenV = make([]uint64, RowWords(nv))
	}
	t.d, t.fromU, t.seenV = t.d[:nv], t.fromU[:nv], t.seenV[:RowWords(nv)]
}

// Solve ships as much mass as the admissible pairs allow and returns the
// total, leaving the assignment readable through Flow. rows holds
// len(supply) rows of RowWords(len(demand)) words each; bits at or beyond
// len(demand) must be clear. Residuals at or below Eps count as empty,
// exactly as in Network.MaxFlow.
//
//nnc:hotpath
func (t *Transport) Solve(supply, demand []float64, rows []uint64) float64 {
	nu, nv := len(supply), len(demand)
	t.size(nu, nv)
	w := RowWords(nv)
	f, s, d := t.f, t.s, t.d
	clear(f)
	copy(s, supply)
	copy(d, demand)

	// Greedy fill: each supply atom pours into its admissible demand atoms
	// in index order. On the instances P-SD produces this already routes
	// most of the mass, and what it strands the augmenting paths re-route.
	var total float64
	for i := 0; i < nu; i++ {
		row, fi := rows[i*w:(i+1)*w], f[i*nv:(i+1)*nv]
		for wi := 0; wi < w && s[i] > Eps; wi++ {
			for word := row[wi]; word != 0 && s[i] > Eps; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				if x := min(s[i], d[j]); x > Eps {
					fi[j] += x
					s[i] -= x
					d[j] -= x
					total += x
				}
			}
		}
	}
	for {
		x := t.augment(rows, w)
		if x <= Eps {
			return total
		}
		total += x
	}
}

// augment finds a shortest residual path from a supply atom with mass left
// to a demand atom with room left, pushes its bottleneck along it and
// returns the amount (0 when no path exists). Forward arcs i→j are the
// admissible pairs and never saturate; backward arcs j→i carry what i
// currently ships to j.
func (t *Transport) augment(rows []uint64, w int) float64 {
	nu, nv := t.nu, t.nv
	f, s, d := t.f, t.s, t.d
	seenV, fromU, viaV := t.seenV, t.fromU, t.viaV
	clear(seenV)
	queue := t.queue[:0]
	for i := 0; i < nu; i++ {
		if s[i] > Eps {
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
				if d[j] > Eps {
					t.queue = queue
					return t.push(j)
				}
				// Demand atom j is full: its mass can be taken back from
				// any supply atom shipping to it.
				for i2 := 0; i2 < nu; i2++ {
					if viaV[i2] == -2 && f[i2*nv+j] > Eps {
						viaV[i2] = int32(j)
						queue = append(queue, int32(i2))
					}
				}
			}
		}
	}
	t.queue = queue
	return 0
}

// push augments along the path the BFS recorded from a root supply atom to
// demand atom end.
func (t *Transport) push(end int) float64 {
	nv := t.nv
	f, fromU, viaV := t.f, t.fromU, t.viaV
	x := t.d[end]
	i := int(fromU[end])
	for viaV[i] >= 0 {
		j := int(viaV[i])
		x = min(x, f[i*nv+j])
		i = int(fromU[j])
	}
	x = min(x, t.s[i])

	t.d[end] -= x
	j := end
	for {
		i = int(fromU[j])
		f[i*nv+j] += x
		if viaV[i] < 0 {
			break
		}
		j = int(viaV[i])
		f[i*nv+j] -= x
	}
	t.s[i] -= x
	return x
}

// Flow returns the mass the last solve ships from supply atom i to demand
// atom j.
func (t *Transport) Flow(i, j int) float64 { return t.f[i*t.nv+j] }

// ShipsOver reports whether the last solve ships more than eps over some
// pair of the given bitset (shaped like the rows it solved).
func (t *Transport) ShipsOver(pairs []uint64, eps float64) bool {
	w := RowWords(t.nv)
	for i := 0; i < t.nu; i++ {
		fi := t.f[i*t.nv : (i+1)*t.nv]
		for wi, word := range pairs[i*w : (i+1)*w] {
			for ; word != 0; word &= word - 1 {
				if j := wi<<6 | bits.TrailingZeros64(word); fi[j] > eps {
					return true
				}
			}
		}
	}
	return false
}

// Isolated reports whether some atom carrying more than eps of mass has no
// admissible pair: a supply atom whose row is empty, or a demand atom whose
// column is. Its mass cannot reach the other side, so Solve would fall short
// of the total by more than eps; asking first saves the solve.
func (t *Transport) Isolated(supply, demand []float64, rows []uint64, eps float64) bool {
	t.size(len(supply), len(demand))
	cols := t.seenV // the union of the rows
	clear(cols)
	w := len(cols)
	for i, p := range supply {
		var any uint64
		for wi, word := range rows[i*w : (i+1)*w] {
			cols[wi] |= word
			any |= word
		}
		if any == 0 && p > eps {
			return true
		}
	}
	for j, p := range demand {
		if p > eps && cols[j>>6]&(1<<(j&63)) == 0 {
			return true
		}
	}
	return false
}
