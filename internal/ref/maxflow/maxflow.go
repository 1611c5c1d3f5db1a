// Package maxflow is the reference network-flow solver, imported by nothing
// the server runs: Network.MaxFlow is Dinic's max-flow on real capacities,
// the general form of the question flow.Transport answers for P-SD (Theorem
// 12) and its test oracle; Network.MinCostMaxFlow is successive-shortest-path
// min-cost flow, the engine of nnfunc's EMD and Netflow (Appendix A).
// Residual capacities compare under Eps; the networks are tiny bipartite
// graphs over two objects' instances, so rounding stays far below it.
package maxflow

import (
	"math"
)

// Eps is the tolerance under which a residual capacity counts as empty.
const Eps = 1e-12

type edge struct {
	to   int
	cap  float64 // residual capacity
	cost float64
}

// Network is a directed flow network over vertices 0..n-1. Construct with
// NewNetwork, or recycle one across solves with Reuse: the edge list,
// adjacency lists and solver scratch are all retained between uses, so a
// warm network builds and solves without allocating. The zero value is a
// usable empty network after Reuse.
type Network struct {
	n     int
	edges []edge // paired: e and e^1 are an arc and its residual twin
	adj   [][]int

	// Solver scratch, sized lazily to n and reused across solves.
	level, iter, queue []int
	dist               []float64
	inQueue            []bool
	prevEdge           []int
}

// NewNetwork returns an empty network with n vertices.
func NewNetwork(n int) *Network {
	g := &Network{}
	g.Reuse(n)
	return g
}

// Reuse re-initializes the network to n empty vertices, keeping every
// backing array: the recycled network adds edges and solves without heap
// allocation once its arrays have grown to the workload's high-water size.
// All edge indices from before the call are invalidated.
func (g *Network) Reuse(n int) {
	g.n = n
	g.edges = g.edges[:0]
	if cap(g.adj) < n {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, n-cap(g.adj))...)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// ensureDinic sizes the Dinic scratch to the vertex count.
//
//nnc:coldpath lazy growth to the network's high-water vertex count; warm solves only reslice
func (g *Network) ensureDinic() {
	if cap(g.level) < g.n {
		g.level = make([]int, g.n)
		g.iter = make([]int, g.n)
		g.queue = make([]int, 0, g.n)
	}
	g.level = g.level[:g.n]
	g.iter = g.iter[:g.n]
}

// ensureSPFA sizes the min-cost scratch to the vertex count.
//
//nnc:coldpath lazy growth to the network's high-water vertex count; warm solves only reslice and clear
func (g *Network) ensureSPFA() {
	if cap(g.dist) < g.n {
		g.dist = make([]float64, g.n)
		g.inQueue = make([]bool, g.n)
		g.prevEdge = make([]int, g.n)
		if cap(g.queue) < g.n {
			g.queue = make([]int, 0, g.n)
		}
	}
	g.dist = g.dist[:g.n]
	g.inQueue = g.inQueue[:g.n]
	g.prevEdge = g.prevEdge[:g.n]
	for i := range g.inQueue {
		g.inQueue[i] = false
	}
}

// Len returns the number of vertices.
func (g *Network) Len() int { return g.n }

// AddEdge adds a directed arc with the given capacity and zero cost,
// returning its edge index (usable with Flow after a solve).
func (g *Network) AddEdge(from, to int, capacity float64) int {
	return g.AddEdgeCost(from, to, capacity, 0)
}

// AddEdgeCost adds a directed arc with the given capacity and per-unit
// cost, returning its edge index.
func (g *Network) AddEdgeCost(from, to int, capacity, cost float64) int {
	idx := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	g.adj[from] = append(g.adj[from], idx)
	g.adj[to] = append(g.adj[to], idx+1)
	return idx
}

// Flow returns the amount of flow currently routed through the edge with
// the given index (its reverse edge's residual capacity).
func (g *Network) Flow(edgeIdx int) float64 { return g.edges[edgeIdx^1].cap }

// MaxFlow computes the maximum s→t flow with Dinic's algorithm and leaves
// the flow assignment readable through Flow. Scratch arrays live on the
// network, so repeated solves on a warm (Reuse-recycled) network do not
// allocate.
//
//nnc:hotpath
func (g *Network) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	g.ensureDinic()
	var total float64
	level, iter := g.level, g.iter
	for g.bfs(s, t, level, &g.queue) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, math.Inf(1), level, iter)
			if f <= Eps {
				break
			}
			total += f
		}
	}
	return total
}

func (g *Network) bfs(s, t int, level []int, queue *[]int) bool {
	for i := range level {
		level[i] = -1
	}
	q := (*queue)[:0]
	q = append(q, s)
	level[s] = 0
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, ei := range g.adj[v] {
			e := g.edges[ei]
			if e.cap > Eps && level[e.to] < 0 {
				level[e.to] = level[v] + 1
				q = append(q, e.to)
			}
		}
	}
	return level[t] >= 0
}

func (g *Network) dfs(v, t int, f float64, level, iter []int) float64 {
	if v == t {
		return f
	}
	for ; iter[v] < len(g.adj[v]); iter[v]++ {
		ei := g.adj[v][iter[v]]
		e := &g.edges[ei]
		if e.cap <= Eps || level[e.to] != level[v]+1 {
			continue
		}
		d := g.dfs(e.to, t, math.Min(f, e.cap), level, iter)
		if d > Eps {
			e.cap -= d
			g.edges[ei^1].cap += d
			return d
		}
	}
	return 0
}

// MinCostMaxFlow computes a maximum s→t flow of minimum total cost using
// successive shortest augmenting paths (SPFA for negative reduced costs).
// It returns the flow value and its cost. Scratch arrays live on the
// network, so repeated solves on a warm network do not allocate.
//
//nnc:hotpath
func (g *Network) MinCostMaxFlow(s, t int) (flow, cost float64) {
	g.ensureSPFA()
	dist, inQueue, prevEdge := g.dist, g.inQueue, g.prevEdge
	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		queue := g.queue[:0]
		queue = append(queue, s)
		inQueue[s] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			inQueue[v] = false
			for _, ei := range g.adj[v] {
				e := g.edges[ei]
				if e.cap > Eps && dist[v]+e.cost < dist[e.to]-Eps {
					dist[e.to] = dist[v] + e.cost
					prevEdge[e.to] = ei
					if !inQueue[e.to] {
						queue = append(queue, e.to)
						inQueue[e.to] = true
					}
				}
			}
		}
		g.queue = queue[:0] // keep any capacity growth for later rounds
		if math.IsInf(dist[t], 1) {
			return flow, cost
		}
		// Bottleneck along the path.
		push := math.Inf(1)
		for v := t; v != s; {
			ei := prevEdge[v]
			if g.edges[ei].cap < push {
				push = g.edges[ei].cap
			}
			v = g.edges[ei^1].to
		}
		for v := t; v != s; {
			ei := prevEdge[v]
			g.edges[ei].cap -= push
			g.edges[ei^1].cap += push
			v = g.edges[ei^1].to
		}
		flow += push
		cost += push * dist[t]
	}
}

// Reset restores every edge to its original capacity by moving flow back
// from the residual twins. It allows re-solving the same network.
func (g *Network) Reset() {
	for i := 0; i < len(g.edges); i += 2 {
		f := g.edges[i^1].cap
		g.edges[i].cap += f
		g.edges[i^1].cap = 0
	}
}
