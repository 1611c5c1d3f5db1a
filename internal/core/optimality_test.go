package core

import (
	"math/rand"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

// These tests validate the optimality theorems (5–8) empirically: the
// correctness half on random inputs against every implemented NN function,
// and the completeness half by constructing the witness functions from the
// proofs.

// famCovered maps each operator to the families it covers.
var famCovered = map[Operator][]nnfunc.Family{
	SSD:     {nnfunc.N1},
	SSSD:    {nnfunc.N1, nnfunc.N2},
	PSD:     {nnfunc.N1, nnfunc.N2, nnfunc.N3},
	FSD:     {nnfunc.N1, nnfunc.N2, nnfunc.N3},
	FPlusSD: {nnfunc.N1, nnfunc.N2, nnfunc.N3},
}

// Correctness: SD(U,V,Q) implies f(U) <= f(V) for every implemented f in
// the operator's covered families, evaluated inside a random containing
// object set (N2 scores are set-relative).
func TestOperatorCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	suites := nnfunc.AllSuites()
	dominancesSeen := map[Operator]int{}
	for iter := 0; iter < 250; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 1.5)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(4), base, 2)
		off := base.Clone()
		off[0] += rng.Float64() * 6
		v := randObject(rng, 2, d, 1+rng.Intn(4), off, 2)
		extras := []*uncertain.Object{
			u, v,
			randObject(rng, 3, d, 1+rng.Intn(3), randCenter(rng, d, 10), 2),
			randObject(rng, 4, d, 1+rng.Intn(3), randCenter(rng, d, 10), 2),
		}
		for _, op := range Operators {
			if !NewChecker(q, op, AllFilters).Dominates(u, v) {
				continue
			}
			dominancesSeen[op]++
			for _, fam := range famCovered[op] {
				for _, f := range suites[fam] {
					scores := f.Scores(extras, q)
					if scores[0] > scores[1]+1e-9 {
						t.Fatalf("iter %d: %v holds but %s(%v) scores U=%g > V=%g",
							iter, op, f.Name(), fam, scores[0], scores[1])
					}
				}
			}
		}
	}
	for _, op := range []Operator{SSD, SSSD, PSD} {
		if dominancesSeen[op] == 0 {
			t.Fatalf("correctness never exercised for %v", op)
		}
	}
}

// Completeness of S-SD (Theorem 5): ¬S-SD(U,V,Q) implies some φ-quantile
// ranks V strictly better than U. The witness φ is Pr(V_Q <= λ) at a CDF
// crossing point λ.
func TestSSDCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	exercised := 0
	for iter := 0; iter < 400; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 2)
		u := randObject(rng, 1, d, 1+rng.Intn(4), randCenter(rng, d, 10), 2)
		v := randObject(rng, 2, d, 1+rng.Intn(4), randCenter(rng, d, 10), 2)
		c := NewChecker(q, SSD, AllFilters)
		if c.Dominates(u, v) {
			continue
		}
		uq := nnfunc.Between(u, q)
		vq := nnfunc.Between(v, q)
		if distr.Equal(uq, vq) {
			continue // mutual equality: no function can separate them
		}
		exercised++
		found := false
		// Candidate φ values: the CDF levels of V_Q (plus U_Q's).
		var phis []float64
		acc := 0.0
		for i := 0; i < vq.Len(); i++ {
			acc += vq.Pair(i).Prob
			phis = append(phis, acc)
		}
		acc = 0
		for i := 0; i < uq.Len(); i++ {
			acc += uq.Pair(i).Prob
			phis = append(phis, acc)
		}
		for _, phi := range phis {
			if phi <= 0 || phi > 1 {
				continue
			}
			if vq.Quantile(phi) < uq.Quantile(phi)-1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("iter %d: ¬S-SD(U,V) but no quantile ranks V better\nU_Q=%v\nV_Q=%v", iter, uq, vq)
		}
	}
	if exercised < 50 {
		t.Fatalf("only %d non-dominated pairs exercised", exercised)
	}
}

// Completeness of SS-SD (Theorem 6): ¬SS-SD(U,V,Q) implies the
// world-threshold witness f with f(V) < f(U), searched over query
// instances and distance thresholds.
func TestSSSDCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	exercised := 0
	for iter := 0; iter < 400; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 2)
		u := randObject(rng, 1, d, 1+rng.Intn(4), randCenter(rng, d, 10), 2)
		v := randObject(rng, 2, d, 1+rng.Intn(4), randCenter(rng, d, 10), 2)
		c := NewChecker(q, SSSD, AllFilters)
		if c.Dominates(u, v) {
			continue
		}
		// Skip pairs failing only the ≠ side condition.
		if distr.Equal(nnfunc.Between(u, q), nnfunc.Between(v, q)) {
			continue
		}
		perQEqual := true
		for j := 0; j < q.Len(); j++ {
			uq := nnfunc.BetweenInstance(u, q.Instance(j))
			vq := nnfunc.BetweenInstance(v, q.Instance(j))
			if !distr.Equal(uq, vq) {
				perQEqual = false
			}
		}
		if perQEqual {
			continue
		}
		exercised++
		objs := []*uncertain.Object{u, v}
		found := false
	search:
		for j := 0; j < q.Len(); j++ {
			vq := nnfunc.BetweenInstance(v, q.Instance(j))
			uq := nnfunc.BetweenInstance(u, q.Instance(j))
			for _, dd := range []distr.Distribution{vq, uq} {
				for i := 0; i < dd.Len(); i++ {
					f := nnfunc.WorldThreshold(j, dd.Pair(i).Dist)
					scores := f.Scores(objs, q)
					if scores[1] < scores[0]-1e-12 {
						found = true
						break search
					}
				}
			}
		}
		if !found {
			t.Fatalf("iter %d: ¬SS-SD(U,V) but no world-threshold witness found", iter)
		}
	}
	if exercised < 50 {
		t.Fatalf("only %d pairs exercised", exercised)
	}
}

// Theorem 8 (F-SD incompleteness): a fixture where ¬F-SD(A,C,Q) yet
// P-SD(A,C,Q), so every implemented function in N1∪N2∪N3 still ranks A no
// worse than C — F-SD keeps C as a redundant candidate.
func TestFSDIncompleteness(t *testing.T) {
	const sep = 12
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {sep, 0}}, nil)
	a := uncertain.MustNew(1, []geom.Point{
		pointWithDists(sep, 5, 15),
		pointWithDists(sep, 20, 10),
	}, nil)
	cc := uncertain.MustNew(2, []geom.Point{
		pointWithDists(sep, 10, 20),
		pointWithDists(sep, 25, 15),
	}, nil)

	if NewChecker(q, FSD, AllFilters).Dominates(a, cc) {
		t.Fatal("fixture broken: F-SD should fail")
	}
	if !NewChecker(q, PSD, AllFilters).Dominates(a, cc) {
		t.Fatal("fixture broken: P-SD should hold")
	}
	objs := []*uncertain.Object{a, cc}
	for fam, fns := range nnfunc.AllSuites() {
		for _, f := range fns {
			scores := f.Scores(objs, q)
			if scores[0] > scores[1]+1e-9 {
				t.Fatalf("%s (%v): A scores %g worse than C %g despite P-SD(A,C)",
					f.Name(), fam, scores[0], scores[1])
			}
		}
	}
}

// Integration: the NN object under every implemented function must appear
// among the NN candidates of every operator covering its family — the
// promise the whole paper is about.
func TestNNCContainsEveryFunctionNN(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	suites := nnfunc.AllSuites()
	for iter := 0; iter < 8; iter++ {
		objs := randDataset(rng, 40, 2, 5, 60)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 1+rng.Intn(4), randCenter(rng, 2, 60), 3)
		candidates := map[Operator]map[int]bool{}
		for _, op := range Operators {
			set := make(map[int]bool)
			for _, id := range idx.Search(q, op).IDs() {
				set[id] = true
			}
			candidates[op] = set
		}
		for _, op := range Operators {
			for _, fam := range famCovered[op] {
				for _, f := range suites[fam] {
					nn := nnfunc.NN(objs, q, f)
					if !candidates[op][nn.ID()] {
						t.Fatalf("iter %d: NN under %s (%v) is object %d, missing from NNC(%v) = %v",
							iter, f.Name(), fam, nn.ID(), op, candidates[op])
					}
				}
			}
		}
	}
}
