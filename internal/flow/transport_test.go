package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// transportCase is one bipartite transport instance in both forms: bitset
// rows for Transport, and the admissible pairs for the Network oracle.
type transportCase struct {
	supply, demand []float64
	rows           []uint64
}

// masses draws n atoms summing to 1 within rounding: some outside the
// support, some exact duplicates of a neighbour.
func masses(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	var sum float64
	for i := range p {
		switch {
		case rng.Intn(5) == 0: // zero mass
		case i > 0 && rng.Intn(4) == 0:
			p[i] = p[i-1]
		default:
			p[i] = 0.05 + rng.Float64()
		}
		sum += p[i]
	}
	if sum == 0 {
		p[0], sum = 1, 1
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// randomTransport draws an instance of the given shape. density picks the
// share of admissible pairs; 0 leaves every row empty. staircase makes the
// admissible set i→{j : j ≥ i·nv/nu}, the shape ⪯Q gives sorted atoms and
// the one where the greedy fill strands mass the augmenting paths must
// re-route.
func randomTransport(rng *rand.Rand, nu, nv int, density float64, staircase bool) transportCase {
	w := RowWords(nv)
	c := transportCase{supply: masses(rng, nu), demand: masses(rng, nv), rows: make([]uint64, nu*w)}
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

func (c transportCase) admissible(i, j int) bool {
	return c.rows[i*RowWords(len(c.demand))+j>>6]&(1<<(j&63)) != 0
}

// oracle solves the instance as a general network with Dinic.
func (c transportCase) oracle() float64 {
	nu, nv := len(c.supply), len(c.demand)
	g := NewNetwork(nu + nv + 2)
	s, t := 0, nu+nv+1
	for i, p := range c.supply {
		g.AddEdge(s, 1+i, p)
	}
	for j, p := range c.demand {
		g.AddEdge(1+nu+j, t, p)
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
	total := tr.Solve(c.supply, c.demand, c.rows)
	if want := c.oracle(); math.Abs(total-want) > 1e-12 {
		return "total differs from Network.MaxFlow"
	}
	var routed float64
	in := make([]float64, len(c.demand))
	for i, p := range c.supply {
		var out float64
		for j := range c.demand {
			f := tr.Flow(i, j)
			switch {
			case f < 0:
				return "negative flow"
			case f > 0 && !c.admissible(i, j):
				return "flow on an inadmissible pair"
			}
			out += f
			in[j] += f
		}
		if out > p+1e-12 {
			return "supply exceeded"
		}
		routed += out
	}
	for j, p := range c.demand {
		if in[j] > p+1e-12 {
			return "demand exceeded"
		}
	}
	if math.Abs(routed-total) > 1e-12 {
		return "returned total is not the routed mass"
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
	total := tr.Solve([]float64{0.5, 0.5}, []float64{0.5, 0.5}, []uint64{0b11, 0b01})
	if math.Abs(total-1) > 1e-12 || tr.Flow(0, 1) != 0.5 || tr.Flow(1, 0) != 0.5 {
		t.Fatalf("total %g, flow(0,1)=%g flow(1,0)=%g; want the crossed full match",
			total, tr.Flow(0, 1), tr.Flow(1, 0))
	}
}

// ShipsOver against the loop it stands for, on pair sets of every density —
// a single pair most of all, where reading the wrong cell of the flow matrix
// cannot hide — at sizes whose rows do not start on a word boundary.
func TestShipsOverMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2303))
	var tr Transport
	for _, shape := range [][2]int{{2, 10}, {10, 10}, {7, 63}, {5, 65}, {70, 70}, {3, 130}, {130, 3}} {
		nu, nv := shape[0], shape[1]
		w := RowWords(nv)
		for rep := 0; rep < 40; rep++ {
			c := randomTransport(rng, nu, nv, 0.5, rep%2 == 0)
			tr.Solve(c.supply, c.demand, c.rows)
			pairs := make([]uint64, nu*w)
			want := false
			const eps = 1e-9
			for n := []int{1, 1, 3, nu * nv / 4}[rep%4]; n > 0; n-- {
				i, j := rng.Intn(nu), rng.Intn(nv)
				SetPair(pairs, w, i, j)
				want = want || tr.Flow(i, j) > eps
			}
			if got := tr.ShipsOver(pairs, eps); got != want {
				t.Fatalf("nu=%d nv=%d rep=%d: ShipsOver = %v, a loop over Flow says %v", nu, nv, rep, got, want)
			}
		}
	}
}

// Isolated is "some atom of positive mass has an empty row or column".
func TestIsolatedMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2304))
	var tr Transport
	for rep := 0; rep < 400; rep++ {
		nu, nv := 1+rng.Intn(130), 1+rng.Intn(130)
		c := randomTransport(rng, nu, nv, []float64{0, 0.01, 0.05, 0.5}[rep%4], false)
		const eps = 1e-9
		rowUsed, colUsed := make([]bool, nu), make([]bool, nv)
		for i := range rowUsed {
			for j := range colUsed {
				if c.admissible(i, j) {
					rowUsed[i], colUsed[j] = true, true
				}
			}
		}
		want := false
		for i, p := range c.supply {
			want = want || (p > eps && !rowUsed[i])
		}
		for j, p := range c.demand {
			want = want || (p > eps && !colUsed[j])
		}
		if got := tr.Isolated(c.supply, c.demand, c.rows, eps); got != want {
			t.Fatalf("nu=%d nv=%d rep=%d: Isolated = %v, want %v", nu, nv, rep, got, want)
		}
	}
}
