package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rawNet is a quick-generated small bipartite network description.
type rawNet struct {
	L, R  uint8
	Caps  [6]uint8
	Edges uint16 // adjacency bitmask, row-major
}

func (r rawNet) build() (*Network, int, int, []int, [][2]int) {
	nl := int(r.L%3) + 1
	nr := int(r.R%3) + 1
	g := NewNetwork(nl + nr + 2)
	s, t := 0, nl+nr+1
	var edgeIdx []int
	var edgeEnds [][2]int
	for i := 0; i < nl; i++ {
		e := g.AddEdge(s, 1+i, float64(r.Caps[i]%8)+0.5)
		edgeIdx = append(edgeIdx, e)
		edgeEnds = append(edgeEnds, [2]int{s, 1 + i})
	}
	for j := 0; j < nr; j++ {
		e := g.AddEdge(1+nl+j, t, float64(r.Caps[3+j]%8)+0.5)
		edgeIdx = append(edgeIdx, e)
		edgeEnds = append(edgeEnds, [2]int{1 + nl + j, t})
	}
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			if r.Edges&(1<<(uint(i)*3+uint(j))) != 0 {
				e := g.AddEdge(1+i, 1+nl+j, math.Inf(1))
				edgeIdx = append(edgeIdx, e)
				edgeEnds = append(edgeEnds, [2]int{1 + i, 1 + nl + j})
			}
		}
	}
	return g, s, t, edgeIdx, edgeEnds
}

var quickCfg = &quick.Config{MaxCount: 800, Rand: rand.New(rand.NewSource(1111))}

// Flow conservation and capacity constraints hold for every max-flow
// assignment quick can generate.
func TestQuickFlowFeasibility(t *testing.T) {
	f := func(r rawNet) bool {
		g, s, tt, edges, ends := r.build()
		total := g.MaxFlow(s, tt)
		if total < 0 {
			return false
		}
		// Per-node net flow: 0 everywhere except source (+total) and sink
		// (−total).
		net := make([]float64, g.Len())
		for k, e := range edges {
			fl := g.Flow(e)
			if fl < -1e-9 {
				return false
			}
			net[ends[k][0]] -= fl
			net[ends[k][1]] += fl
		}
		for v := 0; v < g.Len(); v++ {
			want := 0.0
			if v == s {
				want = -total
			} else if v == tt {
				want = total
			}
			if math.Abs(net[v]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Max flow is bounded above by both side capacities.
func TestQuickFlowBounded(t *testing.T) {
	f := func(r rawNet) bool {
		g, s, tt, _, _ := r.build()
		nl := int(r.L%3) + 1
		nr := int(r.R%3) + 1
		var lcap, rcap float64
		for i := 0; i < nl; i++ {
			lcap += float64(r.Caps[i]%8) + 0.5
		}
		for j := 0; j < nr; j++ {
			rcap += float64(r.Caps[3+j]%8) + 0.5
		}
		total := g.MaxFlow(s, tt)
		return total <= lcap+1e-9 && total <= rcap+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// MinCostMaxFlow reaches the same flow value as MaxFlow on cost-free
// copies of the same network.
func TestQuickMinCostReachesMaxFlow(t *testing.T) {
	f := func(r rawNet) bool {
		g1, s, tt, _, _ := r.build()
		g2, _, _, _, _ := r.build()
		a := g1.MaxFlow(s, tt)
		b, cost := g2.MinCostMaxFlow(s, tt)
		return math.Abs(a-b) < 1e-6 && math.Abs(cost) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
