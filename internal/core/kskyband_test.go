package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

func TestSearchKEqualsSearchAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for iter := 0; iter < 8; iter++ {
		objs := randDataset(rng, 40, 2, 5, 80)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
		for _, op := range Operators {
			a := idx.Search(q, op).IDs()
			b := searchK(idx, q, op, 1, SearchOptions{Filters: AllFilters}).IDs()
			sort.Ints(a)
			sort.Ints(b)
			if len(a) != len(b) {
				t.Fatalf("%v: k=1 gives %v, Search gives %v", op, b, a)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v: k=1 mismatch", op)
				}
			}
		}
	}
}

// matchBruteForce fails unless the indexed search returns exactly the
// k-skyband BruteForceK counts, every candidate with fewer than k dominators.
func matchBruteForce(t *testing.T, tag string, idx *Index, objs []*uncertain.Object, q *uncertain.Object, op Operator, k int) {
	t.Helper()
	want := idsOf(BruteForceK(objs, q, op, k, AllFilters))
	res := searchK(idx, q, op, k, SearchOptions{Filters: AllFilters})
	got := res.IDs()
	sort.Ints(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s %v k=%d: got %v, want %v", tag, op, k, got, want)
	}
	for _, c := range res.Candidates {
		if c.Dominators >= k {
			t.Fatalf("%s %v k=%d: candidate with %d >= k dominators", tag, op, k, c.Dominators)
		}
	}
}

func TestSearchKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for iter := 0; iter < 10; iter++ {
		objs := randDataset(rng, 35, 2, 5, 80)
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
		// Two objects of 70 instances that only the exact P-SD test can
		// tell apart, well away from the query.
		far := q.MBR().Center()
		far[0] += 60
		u, v := widePair(rng, 1001, 1002, 70, q, far)
		requireExactVerdict(t, q, u, v)
		objs = append(objs, u, v)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range Operators {
			for _, k := range []int{1, 2, 3, 5} {
				matchBruteForce(t, fmt.Sprintf("iter %d", iter), idx, objs, q, op, k)
			}
		}
	}
	// F+SD under a wide query: its dominance is defined against the whole
	// query MBR, which is much larger than the triangle of three far-apart
	// instances, so an entry test against the instances prunes subtrees no
	// band member F+SD-dominates (15 of these 120 searches lost a candidate
	// that way).
	rng = rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		objs := make([]*uncertain.Object, 600)
		for i := range objs {
			c := geom.Point{rng.Float64()*600 - 300, rng.Float64()*600 - 300}
			objs[i] = randObject(rng, i+1, 2, 4, c, 4)
		}
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 3, geom.Point{0, 0}, 120)
		for _, k := range []int{1, 2} {
			matchBruteForce(t, fmt.Sprintf("wide query %d", iter), idx, objs, q, FPlusSD, k)
		}
	}
}

// k-skybands nest in k.
func TestSearchKMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	objs := randDataset(rng, 50, 2, 5, 80)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
	prev := map[int]bool{}
	for _, k := range []int{1, 2, 3, 4, 8} {
		cur := map[int]bool{}
		for _, id := range searchK(idx, q, SSSD, k, SearchOptions{Filters: AllFilters}).IDs() {
			cur[id] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("k-skyband not monotone: %d in k-1 band but not k=%d", id, k)
			}
		}
		prev = cur
	}
}

// The top-k objects of every covered function must be k-NN candidates.
func TestSearchKContainsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	objs := randDataset(rng, 40, 2, 5, 60)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 60), 3)
	const k = 3
	band := map[int]bool{}
	for _, id := range searchK(idx, q, PSD, k, SearchOptions{Filters: AllFilters}).IDs() {
		band[id] = true
	}
	suites := nnfunc.AllSuites()
	for _, fam := range []nnfunc.Family{nnfunc.N1, nnfunc.N3} {
		for _, f := range suites[fam] {
			ranked := nnfunc.Ranking(objs, q, f)
			for i := 0; i < k; i++ {
				if !band[ranked[i].ID()] {
					t.Fatalf("top-%d under %s (object %d at rank %d) missing from %d-skyband",
						k, f.Name(), ranked[i].ID(), i, k)
				}
			}
		}
	}
}

func TestSearchKPanicsOnBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	objs := randDataset(rng, 5, 2, 3, 20)
	idx, _ := NewIndex(objs)
	q := randObject(rng, 0, 2, 2, randCenter(rng, 2, 20), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	searchK(idx, q, SSD, 0, SearchOptions{Filters: AllFilters})
}
