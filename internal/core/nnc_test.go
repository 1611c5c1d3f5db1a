package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

func randDataset(rng *rand.Rand, n, d, m int, scale float64) []*uncertain.Object {
	objs := make([]*uncertain.Object, n)
	for i := range objs {
		objs[i] = randObject(rng, i+1, d, 1+rng.Intn(m), randCenter(rng, d, scale), scale/20)
	}
	return objs
}

func idsOf(objs []*uncertain.Object) []int {
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID()
	}
	sort.Ints(ids)
	return ids
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil); !errors.Is(err, ErrNoObjects) {
		t.Fatalf("empty: %v", err)
	}
	a := uncertain.MustNew(1, []geom.Point{{0, 0}}, nil)
	b := uncertain.MustNew(1, []geom.Point{{1, 1}}, nil)
	if _, err := NewIndex([]*uncertain.Object{a, b}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup: %v", err)
	}
	c := uncertain.MustNew(2, []geom.Point{{1}}, nil)
	if _, err := NewIndex([]*uncertain.Object{a, c}); !errors.Is(err, ErrIndexDimMix) {
		t.Fatalf("dim: %v", err)
	}
	idx, err := NewIndex([]*uncertain.Object{a})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 || idx.Dim() != 2 || idx.Object(1) != a || idx.Object(9) != nil {
		t.Fatal("accessors wrong")
	}
}

// Algorithm 1 must return exactly the brute-force skyline under every
// operator and every filter configuration.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for iter := 0; iter < 25; iter++ {
		d := 2 + rng.Intn(2)
		n := 20 + rng.Intn(60)
		objs := randDataset(rng, n, d, 6, 100)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, d, 1+rng.Intn(5), randCenter(rng, d, 100), 4)
		for _, op := range Operators {
			want := idsOf(BruteForceK(objs, q, op, 1, AllFilters))
			for _, cfg := range []FilterConfig{{}, AllFilters} {
				res := searchK(idx, q, op, 1, SearchOptions{Filters: cfg})
				got := res.IDs()
				sort.Ints(got)
				if len(got) != len(want) {
					t.Fatalf("iter %d %v cfg %+v: got %d candidates, brute force %d\n got  %v\n want %v",
						iter, op, cfg, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iter %d %v: candidate sets differ\n got  %v\n want %v", iter, op, got, want)
					}
				}
			}
		}
	}
}

// Candidate sets nest along the cover chain (Figure 5):
// NNC(S-SD) ⊆ NNC(SS-SD) ⊆ NNC(P-SD) ⊆ NNC(F-SD) ⊆ NNC(F+-SD).
func TestCandidateNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for iter := 0; iter < 10; iter++ {
		objs := randDataset(rng, 60, 2, 6, 100)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 100), 5)
		var prev map[int]bool
		for _, op := range Operators { // cover order: SSD, SSSD, PSD, FSD, F+SD
			res := idx.Search(q, op)
			cur := make(map[int]bool, len(res.Candidates))
			for _, c := range res.Candidates {
				cur[c.Object.ID()] = true
			}
			if prev != nil {
				for id := range prev {
					if !cur[id] {
						t.Fatalf("iter %d: candidate %d present under stronger op but missing under %v", iter, id, op)
					}
				}
			}
			prev = cur
		}
	}
}

// Progressive property: candidates are emitted in non-decreasing exact
// min-distance order, the callback fires once per candidate in rank order,
// and elapsed times are monotone.
func TestSearchProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	objs := randDataset(rng, 80, 2, 6, 100)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 100), 5)
	var seen []Candidate
	res := searchK(idx, q, PSD, 1, SearchOptions{
		Filters:     AllFilters,
		OnCandidate: func(c Candidate) { seen = append(seen, c) },
	})
	if len(seen) != len(res.Candidates) {
		t.Fatalf("callback fired %d times for %d candidates", len(seen), len(res.Candidates))
	}
	for i, c := range seen {
		if c.Rank != i {
			t.Fatalf("rank %d at position %d", c.Rank, i)
		}
		if i > 0 {
			if c.MinDist < seen[i-1].MinDist-1e-9 {
				t.Fatalf("min-dist order violated: %g after %g", c.MinDist, seen[i-1].MinDist)
			}
			if c.Elapsed < seen[i-1].Elapsed {
				t.Fatalf("elapsed not monotone")
			}
		}
	}
	if res.Examined < len(res.Candidates) {
		t.Fatalf("examined %d < candidates %d", res.Examined, len(res.Candidates))
	}
	if res.Stats.DominanceChecks == 0 || res.Stats.HeapPops == 0 {
		t.Fatalf("stats not collected: %+v", res.Stats)
	}
}

// The first emitted candidate must be the object with the globally minimal
// pair distance (it can never be dominated).
func TestFirstCandidateIsClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for iter := 0; iter < 10; iter++ {
		objs := randDataset(rng, 50, 2, 5, 100)
		idx, _ := NewIndex(objs)
		q := randObject(rng, 0, 2, 2, randCenter(rng, 2, 100), 3)
		c := NewChecker(q, SSD, AllFilters)
		best, bestID := 1e18, -1
		for _, o := range objs {
			if d := c.MinPairDist(o); d < best {
				best, bestID = d, o.ID()
			}
		}
		for _, op := range Operators {
			res := idx.Search(q, op)
			if len(res.Candidates) == 0 {
				t.Fatalf("no candidates under %v", op)
			}
			if res.Candidates[0].Object.ID() != bestID {
				t.Fatalf("iter %d %v: first candidate %d, want closest %d",
					iter, op, res.Candidates[0].Object.ID(), bestID)
			}
		}
	}
}

// Duplicated objects (identical distributions) must both be candidates:
// the U_Q ≠ V_Q side condition forbids mutual elimination — also for
// duplicates whose instances strictly ⪯Q-dominate one another, where the
// exact P-SD test finds a full match between the copies.
func TestDuplicateObjectsBothSurvive(t *testing.T) {
	q := uncertain.MustNew(0, []geom.Point{{0, 0}, {1, 1}}, nil)
	for _, pts := range [][]geom.Point{{{5, 5}, {6, 6}}, chainedPoints()} {
		a := uncertain.MustNew(1, pts, nil)
		b := uncertain.MustNew(2, pts, nil)
		far := uncertain.MustNew(3, []geom.Point{{100, 100}}, nil)
		idx, err := NewIndex([]*uncertain.Object{a, b, far})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Operator{SSD, SSSD, PSD} {
			for _, cfg := range []FilterConfig{{}, AllFilters} {
				got := searchK(idx, q, op, 1, SearchOptions{Filters: cfg}).IDs()
				sort.Ints(got)
				if len(got) != 2 || got[0] != 1 || got[1] != 2 {
					t.Fatalf("%v, %d instances, filters %+v: candidates = %v, want [1 2]", op, len(pts), cfg, got)
				}
			}
		}
	}
}

// A prefix is taken by cancelling from OnCandidate: the search stops with
// exactly the first n candidates of the full result — the progressive
// property makes early termination sound.
func TestSearchLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	objs := randDataset(rng, 100, 2, 5, 100)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 0, 2, 4, randCenter(rng, 2, 100), 20)
	full := idx.Search(q, FPlusSD)
	if len(full.Candidates) < 4 {
		t.Skipf("only %d candidates; fixture too small", len(full.Candidates))
	}
	lim := searchPrefix(t, idx, q, FPlusSD, 1, 3)
	if len(lim.Candidates) != 3 {
		t.Fatalf("limited search returned %d", len(lim.Candidates))
	}
	for i := 0; i < 3; i++ {
		if lim.Candidates[i].Object.ID() != full.Candidates[i].Object.ID() {
			t.Fatalf("limited prefix differs at %d", i)
		}
	}
	// The prefix must also hold on the k-skyband path.
	if limK := searchPrefix(t, idx, q, FPlusSD, 2, 2); len(limK.Candidates) != 2 {
		t.Fatalf("limited SearchK returned %d", len(limK.Candidates))
	}
}

// searchPrefix runs the search and cancels it once n candidates are out.
func searchPrefix(t *testing.T, idx *Index, q *uncertain.Object, op Operator, k, n int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	res, err := idx.SearchKCtx(ctx, q, op, k, SearchOptions{Filters: AllFilters, OnCandidate: func(Candidate) {
		if emitted++; emitted == n {
			cancel()
		}
	}})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	return res
}

func TestResultAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	objs := randDataset(rng, 20, 2, 4, 50)
	idx, _ := NewIndex(objs)
	q := randObject(rng, 0, 2, 2, randCenter(rng, 2, 50), 2)
	res := idx.Search(q, SSD)
	if len(res.Objects()) != len(res.Candidates) || len(res.IDs()) != len(res.Candidates) {
		t.Fatal("accessor lengths differ")
	}
	for i, o := range res.Objects() {
		if o.ID() != res.IDs()[i] {
			t.Fatal("Objects/IDs disagree")
		}
	}
	if res.Operator != SSD {
		t.Fatal("operator not recorded")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}
