package core

import (
	"math/rand"
	"sort"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Regression: two objects with EXACTLY equal minimum pair distances where
// one dominates the other. Without tie batching, the dominated object
// could pop from the heap first and be wrongly emitted as a candidate.
func TestTiedMinDistDominatedObjectExcluded(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	u := uncertain.MustNew(1, []geom.Point{{1, 0}, {2, 0}}, nil) // U_Q = {1, 2}
	v := uncertain.MustNew(2, []geom.Point{{0, 1}, {0, 3}}, nil) // V_Q = {1, 3}
	// Both min distances are exactly 1; S-SD(U,V) holds.
	if !NewChecker(q, SSD, AllFilters).Dominates(u, v) {
		t.Fatal("fixture broken: U must dominate V")
	}
	// Try both insertion orders (heap layouts differ).
	for _, objs := range [][]*uncertain.Object{{u, v}, {v, u}} {
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Operator{SSD, SSSD, PSD} {
			got := idx.Search(q, op).IDs()
			if len(got) != 1 || got[0] != 1 {
				t.Fatalf("%v (order %d first): candidates = %v, want [1]", op, objs[0].ID(), got)
			}
		}
	}
}

// Chains of ties: many objects at the same min distance with a dominance
// chain among them; only the chain head survives.
func TestTieChain(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
	mk := func(id int, second float64) *uncertain.Object {
		// All share min distance 1 via an instance on the unit circle;
		// the second instance orders them.
		angle := float64(id)
		return uncertain.MustNew(id, []geom.Point{
			{1, 0},
			{second + angle*0, 0},
		}, nil)
	}
	objs := []*uncertain.Object{mk(1, 2), mk(2, 3), mk(3, 4), mk(4, 5)}
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.Search(q, SSD).IDs()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("tie chain candidates = %v, want [1]", got)
	}
	// k-skyband over the tie chain: k members survive.
	for _, k := range []int{2, 3} {
		band := searchK(idx, q, SSD, k, SearchOptions{Filters: AllFilters}).IDs()
		sort.Ints(band)
		if len(band) != k {
			t.Fatalf("k=%d band = %v", k, band)
		}
		for i := 0; i < k; i++ {
			if band[i] != i+1 {
				t.Fatalf("k=%d band = %v, want first %d chain members", k, band, k)
			}
		}
	}
}

// Randomized integer-grid datasets (tie-heavy) must match brute force —
// the grid analogue of TestSearchMatchesBruteForce.
func TestSearchMatchesBruteForceOnGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(1101))
	for iter := 0; iter < 15; iter++ {
		n := 15 + rng.Intn(25)
		objs := make([]*uncertain.Object, n)
		for i := range objs {
			m := 1 + rng.Intn(3)
			pts := make([]geom.Point, m)
			for k := range pts {
				pts[k] = geom.Point{float64(rng.Intn(12)), float64(rng.Intn(12))}
			}
			objs[i] = uncertain.MustNew(i+1, pts, nil)
		}
		q := uncertain.MustNew(0, []geom.Point{
			{float64(rng.Intn(12)), float64(rng.Intn(12))},
			{float64(rng.Intn(12)), float64(rng.Intn(12))},
		}, nil)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range Operators {
			for _, k := range []int{1, 2} {
				want := idsOf(BruteForceK(objs, q, op, k, AllFilters))
				got := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters}).IDs()
				sort.Ints(got)
				if len(got) != len(want) {
					t.Fatalf("iter %d %v k=%d: got %v, want %v", iter, op, k, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iter %d %v k=%d: got %v, want %v", iter, op, k, got, want)
					}
				}
			}
		}
	}
}
