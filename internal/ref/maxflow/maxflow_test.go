package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS-style network with known max flow 23.
	g := NewNetwork(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v2, 10)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, tt, 4)
	if got := g.MaxFlow(s, tt); math.Abs(got-23) > 1e-9 {
		t.Fatalf("max flow = %g, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewNetwork(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Fatalf("flow across disconnect = %g", got)
	}
	if got := g.MaxFlow(0, 0); got != 0 {
		t.Fatalf("s==t flow = %g", got)
	}
}

func TestMaxFlowFractionalBipartite(t *testing.T) {
	// Probability-mass bipartite feasibility: 2 left (0.5, 0.5) to 2 right
	// (0.3, 0.7) with full connectivity has max flow 1.
	g := NewNetwork(6)
	s, t0 := 0, 5
	l := []int{1, 2}
	r := []int{3, 4}
	g.AddEdge(s, l[0], 0.5)
	g.AddEdge(s, l[1], 0.5)
	g.AddEdge(r[0], t0, 0.3)
	g.AddEdge(r[1], t0, 0.7)
	for _, u := range l {
		for _, v := range r {
			g.AddEdge(u, v, math.Inf(1))
		}
	}
	if got := g.MaxFlow(s, t0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("bipartite flow = %g, want 1", got)
	}
}

// Paper Example 5 (Figure 9): U has 3 instances (0.5, 0.2, 0.3), V has 2
// (0.5, 0.5); admissible pairs u1→{v1,v2}, u2→{v1,v2}, u3→{v2}. Max flow is
// 1, so P-SD holds.
func TestMaxFlowPaperExample5(t *testing.T) {
	g := NewNetwork(7)
	s, tt := 0, 6
	u := []int{1, 2, 3}
	v := []int{4, 5}
	g.AddEdge(s, u[0], 0.5)
	g.AddEdge(s, u[1], 0.2)
	g.AddEdge(s, u[2], 0.3)
	g.AddEdge(v[0], tt, 0.5)
	g.AddEdge(v[1], tt, 0.5)
	g.AddEdge(u[0], v[0], math.Inf(1))
	g.AddEdge(u[0], v[1], math.Inf(1))
	g.AddEdge(u[1], v[0], math.Inf(1))
	g.AddEdge(u[1], v[1], math.Inf(1))
	g.AddEdge(u[2], v[1], math.Inf(1))
	if got := g.MaxFlow(s, tt); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Example 5 flow = %g, want 1", got)
	}
	// Remove u3→v2: u3's 0.3 mass is stranded, flow drops to 0.7.
	g2 := NewNetwork(7)
	g2.AddEdge(s, u[0], 0.5)
	g2.AddEdge(s, u[1], 0.2)
	g2.AddEdge(s, u[2], 0.3)
	g2.AddEdge(v[0], tt, 0.5)
	g2.AddEdge(v[1], tt, 0.5)
	g2.AddEdge(u[0], v[0], math.Inf(1))
	g2.AddEdge(u[0], v[1], math.Inf(1))
	g2.AddEdge(u[1], v[0], math.Inf(1))
	g2.AddEdge(u[1], v[1], math.Inf(1))
	if got := g2.MaxFlow(s, tt); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("restricted flow = %g, want 0.7", got)
	}
}

func TestFlowExtraction(t *testing.T) {
	g := NewNetwork(3)
	e0 := g.AddEdge(0, 1, 2)
	e1 := g.AddEdge(1, 2, 1.5)
	if got := g.MaxFlow(0, 2); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("flow = %g", got)
	}
	if math.Abs(g.Flow(e0)-1.5) > 1e-9 || math.Abs(g.Flow(e1)-1.5) > 1e-9 {
		t.Fatalf("edge flows = %g, %g", g.Flow(e0), g.Flow(e1))
	}
}

func TestReset(t *testing.T) {
	g := NewNetwork(2)
	e := g.AddEdge(0, 1, 3)
	if got := g.MaxFlow(0, 1); got != 3 {
		t.Fatalf("flow = %g", got)
	}
	g.Reset()
	if g.Flow(e) != 0 {
		t.Fatal("Reset left flow on edge")
	}
	if got := g.MaxFlow(0, 1); got != 3 {
		t.Fatalf("flow after reset = %g", got)
	}
}

// Max-flow on random bipartite graphs must equal the min vertex-side cut
// computed by brute force over subsets (max-flow min-cut on small graphs).
func TestMaxFlowMatchesBruteForceCut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		nl := 1 + rng.Intn(4)
		nr := 1 + rng.Intn(4)
		lp := make([]float64, nl)
		rp := make([]float64, nr)
		for i := range lp {
			lp[i] = rng.Float64()
		}
		for i := range rp {
			rp[i] = rng.Float64()
		}
		adj := make([][]bool, nl)
		for i := range adj {
			adj[i] = make([]bool, nr)
			for j := range adj[i] {
				adj[i][j] = rng.Intn(2) == 0
			}
		}
		g := NewNetwork(nl + nr + 2)
		s, tt := 0, nl+nr+1
		for i, p := range lp {
			g.AddEdge(s, 1+i, p)
		}
		for j, p := range rp {
			g.AddEdge(1+nl+j, tt, p)
		}
		for i := range adj {
			for j := range adj[i] {
				if adj[i][j] {
					g.AddEdge(1+i, 1+nl+j, math.Inf(1))
				}
			}
		}
		got := g.MaxFlow(s, tt)

		// Min cut over subsets S of left vertices kept on the source side:
		// cut = Σ_{i∉S} lp[i] + Σ_{j reachable from S} rp[j].
		best := math.Inf(1)
		for mask := 0; mask < 1<<nl; mask++ {
			cut := 0.0
			var reach [4]bool
			for i := 0; i < nl; i++ {
				if mask&(1<<i) == 0 {
					cut += lp[i]
					continue
				}
				for j := 0; j < nr; j++ {
					if adj[i][j] {
						reach[j] = true
					}
				}
			}
			for j := 0; j < nr; j++ {
				if reach[j] {
					cut += rp[j]
				}
			}
			if cut < best {
				best = cut
			}
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("iter %d: flow %g != min cut %g", iter, got, best)
		}
	}
}

func TestMinCostMaxFlowTransport(t *testing.T) {
	// Transport 1 unit from s through two routes: cost-2 route capacity 0.6,
	// cost-5 route capacity 0.4 → min cost = 0.6*2 + 0.4*5 = 3.2.
	g := NewNetwork(4)
	s, a, b, tt := 0, 1, 2, 3
	g.AddEdgeCost(s, a, 0.6, 0)
	g.AddEdgeCost(s, b, 0.4, 0)
	g.AddEdgeCost(a, tt, math.Inf(1), 2)
	g.AddEdgeCost(b, tt, math.Inf(1), 5)
	f, c := g.MinCostMaxFlow(s, tt)
	if math.Abs(f-1) > 1e-9 {
		t.Fatalf("flow = %g", f)
	}
	if math.Abs(c-3.2) > 1e-9 {
		t.Fatalf("cost = %g, want 3.2", c)
	}
}

func TestMinCostPrefersCheapRoute(t *testing.T) {
	// Two parallel routes with ample capacity; all flow must take cost 1.
	g := NewNetwork(4)
	s, a, b, tt := 0, 1, 2, 3
	g.AddEdgeCost(s, a, 1, 0)
	g.AddEdgeCost(s, b, 1, 0)
	ea := g.AddEdgeCost(a, tt, 2, 1)
	eb := g.AddEdgeCost(b, tt, 2, 10)
	f, c := g.MinCostMaxFlow(s, tt)
	if math.Abs(f-2) > 1e-9 || math.Abs(c-11) > 1e-9 {
		t.Fatalf("flow=%g cost=%g, want 2, 11", f, c)
	}
	if math.Abs(g.Flow(ea)-1) > 1e-9 || math.Abs(g.Flow(eb)-1) > 1e-9 {
		t.Fatalf("route flows = %g, %g", g.Flow(ea), g.Flow(eb))
	}
}

// Min-cost flow on tiny bipartite transport instances must match exhaustive
// enumeration over discretized assignments (validated EMD ground truth).
func TestMinCostMatchesBruteForceAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 100; iter++ {
		// Equal masses so the optimum is a permutation (Birkhoff).
		n := 2 + rng.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 10
			}
		}
		g := NewNetwork(2*n + 2)
		s, tt := 0, 2*n+1
		p := 1 / float64(n)
		for i := 0; i < n; i++ {
			g.AddEdgeCost(s, 1+i, p, 0)
			g.AddEdgeCost(1+n+i, tt, p, 0)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.AddEdgeCost(1+i, 1+n+j, math.Inf(1), cost[i][j])
			}
		}
		f, c := g.MinCostMaxFlow(s, tt)
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("flow = %g", f)
		}
		// Brute-force min over permutations.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := math.Inf(1)
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				tot := 0.0
				for i, j := range perm {
					tot += cost[i][j] * p
				}
				if tot < best {
					best = tot
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if math.Abs(c-best) > 1e-6 {
			t.Fatalf("iter %d: min cost %g != brute %g", iter, c, best)
		}
	}
}
