package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

func engineFixture(t *testing.T, n int, seed int64) (*Index, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, M: 6, EdgeLen: 400, Seed: seed})
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

// searchK is the tests' shorthand for the full call under a background
// context, where the memory backend cannot fail.
func searchK(idx *Index, q *uncertain.Object, op Operator, k int, opts SearchOptions) *Result {
	res, _ := idx.SearchKCtx(context.Background(), q, op, k, opts)
	return res
}

// A context canceled mid-search aborts the traversal and returns the
// partial result with the context's error.
func TestSearchBackendCancellation(t *testing.T) {
	idx, ds := engineFixture(t, 150, 31)
	q := ds.Queries(1, 4, 200, 32)[0]
	full, err := idx.SearchKCtx(context.Background(), q, FPlusSD, 1, SearchOptions{Filters: AllFilters})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Candidates) < 2 {
		t.Skip("dataset produced a trivial candidate set")
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := idx.SearchKCtx(ctx, q, FPlusSD, 1, SearchOptions{
		Filters:     AllFilters,
		OnCandidate: func(Candidate) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Candidates) == 0 || len(res.Candidates) >= len(full.Candidates) {
		t.Fatalf("partial result wrong: %+v", res)
	}
	for i, c := range res.Candidates {
		if c.Object.ID() != full.Candidates[i].Object.ID() {
			t.Fatalf("partial result not a prefix at %d", i)
		}
	}
}

// An already-done context still yields a well-formed (empty) result and
// the context error from the ctx-taking entry point.
func TestSearchBackendPreCanceled(t *testing.T) {
	idx, ds := engineFixture(t, 100, 35)
	q := ds.Queries(1, 4, 200, 36)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchBackend(ctx, idx, q, SSD, 1, SearchOptions{Filters: AllFilters})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || len(res.Candidates) != 0 || res.Elapsed <= 0 {
		t.Fatalf("partial result wrong: %+v", res)
	}
}

// Concurrent searches share the scratch pool without interference; every
// run must reproduce the serial result exactly.
func TestEngineScratchPoolConcurrent(t *testing.T) {
	idx, ds := engineFixture(t, 150, 37)
	queries := ds.Queries(4, 4, 200, 38)
	type key struct{ qi, opi int }
	want := map[key][]int{}
	for qi, q := range queries {
		for opi, op := range Operators {
			want[key{qi, opi}] = idx.Search(q, op).IDs()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for rep := 0; rep < 4; rep++ {
		for qi, q := range queries {
			for opi, op := range Operators {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got := idx.Search(q, op).IDs()
					exp := want[key{qi, opi}]
					if len(got) != len(exp) {
						errs <- "length mismatch"
						return
					}
					for i := range exp {
						if got[i] != exp[i] {
							errs <- "order mismatch"
							return
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestIOStatsArithmetic(t *testing.T) {
	a := IOStats{Hits: 10, Misses: 4, Reads: 4, Writes: 1, CacheHits: 3, CacheEvictions: 2}
	b := IOStats{Hits: 6, Misses: 1, Reads: 1, Writes: 1, CacheHits: 1, CacheEvictions: 0}
	d := a.Sub(b)
	if d != (IOStats{Hits: 4, Misses: 3, Reads: 3, CacheHits: 2, CacheEvictions: 2}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Accesses() != 7 {
		t.Fatalf("Accesses = %d", d.Accesses())
	}
}

// The typed heap must behave exactly like container/heap: min key first,
// pop order non-decreasing, no loss across interleaved push/pop.
func TestSearchHeapOrdering(t *testing.T) {
	var h searchHeap
	keys := []float64{5, 1, 4, 1, 3, 9, 2, 6, 0, 7, 8, 2}
	for _, k := range keys {
		h.push(searchItem{key: k})
	}
	// Interleave: pop two, push one, then drain.
	var got []float64
	got = append(got, h.pop().key, h.pop().key)
	h.push(searchItem{key: 1.5})
	for h.len() > 0 {
		got = append(got, h.pop().key)
	}
	if len(got) != len(keys)+1 {
		t.Fatalf("lost items: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop order not sorted: %v", got)
		}
	}
}
