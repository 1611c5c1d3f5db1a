package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialdom/internal/distr"
	"spatialdom/internal/ref/maxflow"
)

// transportCase is one bipartite transport instance in both forms: bitset
// rows for Transport, and the admissible pairs for the max-flow oracle.
// Supply atom i holds supply[i]·ws, demand atom j demand[j]·wd.
type transportCase struct {
	supply, demand []uint64
	ws, wd         uint64
	rows           []uint64
}

// masses draws n integer masses of up to 1000 units: some outside the
// support, some exact duplicates of a neighbour.
func masses(rng *rand.Rand, n int) []uint64 {
	p := make([]uint64, n)
	var sum uint64
	for i := range p {
		switch {
		case rng.Intn(5) == 0: // zero mass
		case i > 0 && rng.Intn(4) == 0:
			p[i] = p[i-1]
		default:
			p[i] = 1 + uint64(rng.Intn(1000))
		}
		sum += p[i]
	}
	if sum == 0 {
		p[0] = 1
	}
	return p
}

// randomTransport draws an instance of the given shape. density picks the
// share of admissible pairs; 0 leaves every row empty. staircase makes the
// admissible set i→{j : j ≥ i·nv/nu}, the shape ⪯Q gives sorted atoms and
// the one where the greedy fill strands mass the augmenting paths must
// re-route. Half the time the two sides' totals are made equal through
// the weights, as P-SD's are.
func randomTransport(rng *rand.Rand, nu, nv int, density float64, staircase bool) transportCase {
	w := RowWords(nv)
	c := transportCase{supply: masses(rng, nu), demand: masses(rng, nv), ws: 1, wd: 1, rows: make([]uint64, nu*w)}
	if rng.Intn(2) == 0 {
		c.ws, c.wd = total(c.demand), total(c.supply)
	}
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			adm := rng.Float64() < density
			if staircase {
				adm = j >= i*nv/nu && rng.Float64() < density
			}
			if adm {
				SetPair(c.rows, w, i, j)
			}
		}
	}
	return c
}

func total(p []uint64) (s uint64) {
	for _, x := range p {
		s += x
	}
	return s
}

func (c transportCase) admissible(i, j int) bool {
	return c.rows[i*RowWords(len(c.demand))+j>>6]&(1<<(j&63)) != 0
}

// oracle solves the instance as a general network with Dinic, in floats
// that hold every mass and sum here exactly.
func (c transportCase) oracle() float64 {
	nu, nv := len(c.supply), len(c.demand)
	g := maxflow.NewNetwork(nu + nv + 2)
	s, t := 0, nu+nv+1
	for i, p := range c.supply {
		g.AddEdge(s, 1+i, float64(p*c.ws))
	}
	for j, p := range c.demand {
		g.AddEdge(1+nu+j, t, float64(p*c.wd))
	}
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			if c.admissible(i, j) {
				g.AddEdge(1+i, 1+nu+j, math.Inf(1))
			}
		}
	}
	return g.MaxFlow(s, t)
}

// check solves c on tr and reports how it differs from the oracle or breaks
// a constraint; "" when it does neither.
func (c transportCase) check(tr *Transport) string {
	all := tr.Solve(c.supply, c.ws, c.demand, c.wd, c.rows)
	var routed uint64
	in := make([]uint64, len(c.demand))
	for i, p := range c.supply {
		var out uint64
		for j := range c.demand {
			f := tr.Flow(i, j)
			switch {
			case f.Hi != 0:
				return "flow beyond the masses"
			case f.Lo > 0 && !c.admissible(i, j):
				return "flow on an inadmissible pair"
			}
			out += f.Lo
			in[j] += f.Lo
		}
		if out > p*c.ws {
			return "supply exceeded"
		}
		routed += out
	}
	for j, p := range c.demand {
		if in[j] > p*c.wd {
			return "demand exceeded"
		}
	}
	if float64(routed) != c.oracle() {
		return "shipped mass differs from the Dinic max-flow"
	}
	if want := routed == total(c.supply)*c.ws && routed == total(c.demand)*c.wd; all != want {
		return "Solve's verdict is not whether everything shipped"
	}
	return ""
}

// The transport kernel against the general max-flow solver on seeded random
// instances: every size from 1 to 130 per side (so rows of one, two and
// three words), empty, sparse, dense and staircase admissibility, one
// solver reused throughout so stale state from a larger problem would show.
func TestTransportMatchesMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	var tr Transport
	densities := []float64{0, 0.02, 0.15, 0.5, 1}
	for n := 1; n <= 130; n++ {
		for rep := 0; rep < 4; rep++ {
			nu, nv := n, 1+rng.Intn(130)
			if rep%2 == 1 {
				nu, nv = nv, nu
			}
			c := randomTransport(rng, nu, nv, densities[rng.Intn(len(densities))], rep >= 2)
			if msg := c.check(&tr); msg != "" {
				t.Fatalf("nu=%d nv=%d rep=%d: %s", nu, nv, rep, msg)
			}
		}
	}
	checkWideMasses(t, &tr)
}

// The same property under testing/quick's generator.
func TestQuickTransportMatchesMaxFlow(t *testing.T) {
	var tr Transport
	f := func(seed int64, nu, nv, density uint8, staircase bool) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomTransport(rng, 1+int(nu)%130, 1+int(nv)%130, float64(density%5)/4, staircase)
		if msg := c.check(&tr); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2302))}); err != nil {
		t.Fatal(err)
	}
}

// A full match that the greedy fill alone misses: supply 0 may ship to both
// demand atoms and takes the first, which is the only one supply 1 may use.
func TestTransportReroutesGreedyFill(t *testing.T) {
	var tr Transport
	all := tr.Solve([]uint64{1, 1}, 1, []uint64{1, 1}, 1, []uint64{0b11, 0b01})
	if !all || tr.Flow(0, 1) != (distr.Mass{Lo: 1}) || tr.Flow(1, 0) != (distr.Mass{Lo: 1}) {
		t.Fatalf("all shipped %v, flow(0,1)=%v flow(1,0)=%v; want the crossed full match",
			all, tr.Flow(0, 1), tr.Flow(1, 0))
	}
}

// checkWideMasses is TestTransportMatchesMaxFlow's case of masses past 64
// bits, as P-SD's scaled masses are: every mass and weight of a case
// multiplied by 2⁵⁴ and 2²⁰, so that each product is 2⁷⁴ times the
// small one. Every step of a solve compares, subtracts and adds masses, so
// the solve takes the same steps, and each flow is the small solve's times
// 2⁷⁴ — its low word zero, its high word the small flow shifted by ten.
func checkWideMasses(t *testing.T, tr *Transport) {
	rng := rand.New(rand.NewSource(2305))
	var small Transport
	for rep := 0; rep < 200; rep++ {
		nu, nv := 1+rng.Intn(70), 1+rng.Intn(70)
		c := randomTransport(rng, nu, nv, []float64{0.02, 0.15, 0.5, 1}[rep%4], rep%3 == 0)
		wide := func(p []uint64) []uint64 {
			out := make([]uint64, len(p))
			for i, x := range p {
				out[i] = x << 54
			}
			return out
		}
		want := small.Solve(c.supply, c.ws, c.demand, c.wd, c.rows)
		if got := tr.Solve(wide(c.supply), c.ws<<20, wide(c.demand), c.wd<<20, c.rows); got != want {
			t.Fatalf("rep=%d nu=%d nv=%d: shipped everything %v, the small solve %v", rep, nu, nv, got, want)
		}
		for i := range nu {
			for j := range nv {
				if f, g := small.Flow(i, j), tr.Flow(i, j); g != (distr.Mass{Hi: f.Lo << 10}) || f.Hi != 0 {
					t.Fatalf("rep=%d: flow(%d,%d) is %v, the small solve's %v", rep, i, j, g, f)
				}
			}
		}
	}
}

// Isolated is "some atom of positive mass has no admissible pair with a
// positive-mass atom of the other side".
func TestIsolatedMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2304))
	var tr Transport
	for rep := 0; rep < 400; rep++ {
		nu, nv := 1+rng.Intn(130), 1+rng.Intn(130)
		c := randomTransport(rng, nu, nv, []float64{0, 0.01, 0.05, 0.5}[rep%4], false)
		rowUsed, colUsed := make([]bool, nu), make([]bool, nv)
		for i := range rowUsed {
			for j := range colUsed {
				if c.admissible(i, j) && c.supply[i] > 0 && c.demand[j] > 0 {
					rowUsed[i], colUsed[j] = true, true
				}
			}
		}
		want := false
		for i, p := range c.supply {
			want = want || (p > 0 && !rowUsed[i])
		}
		for j, p := range c.demand {
			want = want || (p > 0 && !colUsed[j])
		}
		if got := tr.Isolated(c.supply, c.demand, c.rows); got != want {
			t.Fatalf("nu=%d nv=%d rep=%d: Isolated = %v, want %v", nu, nv, rep, got, want)
		}
	}
}
