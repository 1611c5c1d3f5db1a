package nncore

import (
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

// Figure 1 of the paper, reconstructed on a line: each object has two
// instances with probabilities 0.6/0.4 and the query is a single point.
// A supersedes B and C (probability 0.6 each), B supersedes C, so the
// NN-core is {A} — yet B is the NN under expected distance and C under
// max distance. This is exactly the Remark 1 argument for not using the
// NN-core as the candidate set.
func figure1() (a, b, c, q *uncertain.Object) {
	q = uncertain.MustNew(0, []geom.Point{{0}}, nil)
	a = uncertain.MustNew(1, []geom.Point{{1}, {100}}, []float64{0.6, 0.4})
	b = uncertain.MustNew(2, []geom.Point{{2}, {90}}, []float64{0.6, 0.4})
	c = uncertain.MustNew(3, []geom.Point{{3}, {89}}, []float64{0.6, 0.4})
	return
}

func TestSupersedeProbFigure1(t *testing.T) {
	a, b, c, q := figure1()
	cases := []struct {
		u, v *uncertain.Object
		want float64
	}{
		{a, b, 0.6}, {a, c, 0.6}, {b, c, 0.6},
		{b, a, 0.4}, {c, a, 0.4}, {c, b, 0.4},
	}
	for _, cse := range cases {
		if got := SupersedeProb(cse.u, cse.v, q); math.Abs(got-cse.want) > 1e-12 {
			t.Fatalf("Pr(%d beats %d) = %g, want %g", cse.u.ID(), cse.v.ID(), got, cse.want)
		}
	}
	if !Supersedes(a, b, q) || Supersedes(b, a, q) {
		t.Fatal("supersede direction wrong")
	}
}

func TestCoreFigure1(t *testing.T) {
	a, b, c, q := figure1()
	objs := []*uncertain.Object{a, b, c}
	nc := Core(objs, q)
	if len(nc) != 1 || nc[0] != a {
		t.Fatalf("NN-core = %v, want {A}", ids(nc))
	}
}

// Remark 1: the NN-core misses NN objects of popular N1 functions, while
// the paper's S-SD candidates keep them.
func TestRemark1CoreMissesFunctionNNs(t *testing.T) {
	a, b, c, q := figure1()
	objs := []*uncertain.Object{a, b, c}

	nnExpected := nnfunc.NN(objs, q, nnfunc.ExpectedDist())
	nnMax := nnfunc.NN(objs, q, nnfunc.MaxDist())
	if nnExpected != b {
		t.Fatalf("expected-distance NN = %d, fixture wants B", nnExpected.ID())
	}
	if nnMax != c {
		t.Fatalf("max-distance NN = %d, fixture wants C", nnMax.ID())
	}

	nc := Core(objs, q)
	inCore := map[int]bool{}
	for _, o := range nc {
		inCore[o.ID()] = true
	}
	if inCore[b.ID()] || inCore[c.ID()] {
		t.Fatal("fixture broken: B and C must be outside the NN-core")
	}

	// The paper's weakest operator (S-SD, optimal for N1) keeps all three.
	idx, err := core.NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(q, core.SSD)
	if len(res.Candidates) != 3 {
		t.Fatalf("S-SD candidates = %v, want all three objects", res.IDs())
	}
}

// The NN-core members must pairwise supersede every non-member (the
// defining feasibility property), on random inputs.
func TestCoreFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 40; iter++ {
		n := 3 + rng.Intn(6)
		objs := make([]*uncertain.Object, n)
		for i := range objs {
			m := 1 + rng.Intn(3)
			pts := make([]geom.Point, m)
			for k := range pts {
				pts[k] = geom.Point{rng.Float64() * 10, rng.Float64() * 10}
			}
			objs[i] = uncertain.MustNew(i+1, pts, nil)
		}
		q := uncertain.MustNew(0, []geom.Point{{rng.Float64() * 10, rng.Float64() * 10}}, nil)
		nc := Core(objs, q)
		if len(nc) == 0 {
			t.Fatal("empty core")
		}
		inCore := map[int]bool{}
		for _, o := range nc {
			inCore[o.ID()] = true
		}
		for _, s := range nc {
			for _, o := range objs {
				if inCore[o.ID()] {
					continue
				}
				if !Supersedes(s, o, q) {
					t.Fatalf("iter %d: core member %d does not supersede outsider %d", iter, s.ID(), o.ID())
				}
			}
		}
	}
	if Core(nil, nil) != nil {
		t.Fatal("empty input must give empty core")
	}
}

// Supersede probabilities are complementary when ties are impossible.
func TestSupersedeComplementary(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for iter := 0; iter < 100; iter++ {
		mk := func(id int) *uncertain.Object {
			m := 1 + rng.Intn(4)
			pts := make([]geom.Point, m)
			for k := range pts {
				pts[k] = geom.Point{rng.Float64() * 10, rng.Float64() * 10}
			}
			return uncertain.MustNew(id, pts, nil)
		}
		u, v := mk(1), mk(2)
		q := mk(0)
		puv := SupersedeProb(u, v, q)
		pvu := SupersedeProb(v, u, q)
		if math.Abs(puv+pvu-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g", puv+pvu)
		}
	}
}

func ids(objs []*uncertain.Object) []int {
	out := make([]int, len(objs))
	for i, o := range objs {
		out[i] = o.ID()
	}
	return out
}
