package flow

import (
	"math"
	"testing"
)

// buildBipartite fills g (via Reuse) with the P-SD-shaped assignment
// network: nu sources, nv sinks, unbounded middle edges on a fixed pattern.
func buildBipartite(g *Network, nu, nv int) (s, t int) {
	g.Reuse(nu + nv + 2)
	s, t = 0, nu+nv+1
	for i := 0; i < nu; i++ {
		g.AddEdge(s, 1+i, 1.0/float64(nu))
	}
	for j := 0; j < nv; j++ {
		g.AddEdge(1+nu+j, t, 1.0/float64(nv))
	}
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			if (i+j)%3 != 0 {
				g.AddEdge(1+i, 1+nu+j, math.Inf(1))
			}
		}
	}
	return s, t
}

// A warm network — rebuilt in place with Reuse after its arrays have grown
// — must solve max-flow without allocating.
func TestWarmMaxFlowZeroAllocs(t *testing.T) {
	var g Network
	run := func() {
		s, tt := buildBipartite(&g, 12, 10)
		g.MaxFlow(s, tt)
	}
	run() // grow edge list, adjacency and Dinic scratch
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm Reuse+MaxFlow allocated %.1f times per round, want 0", avg)
	}
}

// The transport kernel the P-SD path solves with holds all its state: a warm
// solve, at a size whose rows span two words, allocates nothing.
func TestWarmTransportZeroAllocs(t *testing.T) {
	const nu, nv = 70, 70
	w := RowWords(nv)
	supply, demand, rows := make([]float64, nu), make([]float64, nv), make([]uint64, nu*w)
	for i := range supply {
		supply[i] = 1.0 / nu
		for j := i; j < nv; j += 3 {
			SetPair(rows, w, i, j)
		}
	}
	for j := range demand {
		demand[j] = 1.0 / nv
	}
	var tr Transport
	run := func() { tr.Solve(supply, demand, rows) }
	run()
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm Transport.Solve allocated %.1f times per round, want 0", avg)
	}
}

// Same guard for the min-cost solver used by the EMD/Netflow distance.
func TestWarmMinCostZeroAllocs(t *testing.T) {
	var g Network
	run := func() {
		g.Reuse(8)
		for i := 1; i < 7; i++ {
			g.AddEdgeCost(0, i, 1, float64(i))
			g.AddEdgeCost(i, 7, 1, float64(7-i))
		}
		g.MinCostMaxFlow(0, 7)
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm Reuse+MinCostMaxFlow allocated %.1f times per round, want 0", avg)
	}
}

// Reuse must fully invalidate the previous build: a recycled network
// returns the same flow value as a fresh one.
func TestReuseMatchesFresh(t *testing.T) {
	var g Network
	for _, shape := range []struct{ nu, nv int }{{3, 5}, {10, 7}, {2, 2}, {16, 16}} {
		s, tt := buildBipartite(&g, shape.nu, shape.nv)
		got := g.MaxFlow(s, tt)
		fresh := NewNetwork(shape.nu + shape.nv + 2)
		s2, t2 := buildBipartite(fresh, shape.nu, shape.nv)
		want := fresh.MaxFlow(s2, t2)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("nu=%d nv=%d: recycled flow %g, fresh flow %g", shape.nu, shape.nv, got, want)
		}
	}
}
