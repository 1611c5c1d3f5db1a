package flow

import "testing"

// The transport kernel the P-SD path solves with holds all its state: a warm
// solve, at a size whose rows span two words, allocates nothing.
func TestWarmTransportZeroAllocs(t *testing.T) {
	const nu, nv = 70, 70
	w := RowWords(nv)
	supply, demand, rows := make([]uint64, nu), make([]uint64, nv), make([]uint64, nu*w)
	for i := range supply {
		supply[i] = 1 << 60 / nu
		for j := i; j < nv; j += 3 {
			SetPair(rows, w, i, j)
		}
	}
	for j := range demand {
		demand[j] = 1 << 60 / nv
	}
	var tr Transport
	run := func() { tr.Solve(supply, 1<<60, demand, 1<<60, rows) }
	run()
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm Transport.Solve allocated %.1f times per round, want 0", avg)
	}
}
