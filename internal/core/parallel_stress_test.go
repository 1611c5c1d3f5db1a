package core

// SearchParallel under real contention: more workers than GOMAXPROCS and a
// mix of heavy and light queries, run under -race by `make check`. The assertions are the batch
// contract: results land in input order, exactly one hard error cancels
// the batch, and degraded (PartialResultError) slots survive alongside
// clean ones.

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"spatialdom/internal/uncertain"
)

// stressSearcher fakes a KSearcher with per-query behavior keyed by query
// ID: heavy queries spin, designated IDs degrade or fail hard. Every
// result is tagged with the query's ID so slot/input alignment is
// checkable after a racy fan-out.
type stressSearcher struct {
	heavyEvery int          // every n-th query burns extra CPU
	partialAt  map[int]bool // these degrade (PartialResultError)
	hardAt     map[int]bool // these fail hard
	calls      atomic.Int64
}

func (s *stressSearcher) SearchKCtx(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.calls.Add(1)
	id := q.ID()
	spin := 200
	if s.heavyEvery > 0 && id%s.heavyEvery == 0 {
		spin = 20000 // a heavy PSD-like query: two orders of magnitude more work
	}
	sink := 0
	for i := 0; i < spin; i++ {
		sink += i * i
	}
	if s.hardAt[id] {
		return nil, errors.New("hard storage failure")
	}
	res := &Result{Operator: op, Examined: id, Stats: Stats{HeapPops: int64(sink)}}
	if s.partialAt[id] {
		res.Incomplete = true
		pe := &PartialResultError{Result: res}
		pe.note(unavailable(uint32(id)), true)
		return res, pe
	}
	return res, nil
}

// TestSearchParallelInputOrderUnderContention oversubscribes the
// scheduler (workers = 4×GOMAXPROCS) with mixed heavy/light queries and
// asserts every result slot carries its own query's answer.
func TestSearchParallelInputOrderUnderContention(t *testing.T) {
	const n = 512
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	queries := fakeQueries(t, n)
	s := &stressSearcher{heavyEvery: 7}
	results, err := SearchParallel(context.Background(), s, queries, PSD, 1, SearchOptions{}, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.calls.Load(); got != n {
		t.Fatalf("searcher ran %d times, want %d (work lost or duplicated)", got, n)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("slot %d lost its result", i)
		}
		if res.Examined != i {
			t.Fatalf("slot %d holds query %d's result — input order broken", i, res.Examined)
		}
	}
}

// TestSearchParallelMixedPartialAndCleanUnderContention: degraded slots
// survive in place (flagged), clean slots stay unflagged, and the batch
// reports no error — at workers > GOMAXPROCS so stealing and scratch
// pinning are both exercised.
func TestSearchParallelMixedPartialAndCleanUnderContention(t *testing.T) {
	const n = 256
	workers := 2*runtime.GOMAXPROCS(0) + 3
	partialAt := map[int]bool{}
	for i := 5; i < n; i += 11 {
		partialAt[i] = true
	}
	s := &stressSearcher{heavyEvery: 5, partialAt: partialAt}
	results, err := SearchParallel(context.Background(), s, fakeQueries(t, n), PSD, 1, SearchOptions{}, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatalf("partial slots must not fail the batch: %v", err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("slot %d lost its result", i)
		}
		if res.Incomplete != partialAt[i] {
			t.Fatalf("slot %d: Incomplete=%v, want %v", i, res.Incomplete, partialAt[i])
		}
	}
}

// TestSearchParallelOneHardErrorCancels: exactly one poisoned query in a
// big contended batch must surface its error and cancel outstanding work;
// completed slots keep their results, the poisoned slot stays nil.
func TestSearchParallelOneHardErrorCancels(t *testing.T) {
	const n, bad = 512, 137
	s := &stressSearcher{heavyEvery: 3, hardAt: map[int]bool{bad: true}}
	results, err := SearchParallel(context.Background(), s, fakeQueries(t, n), PSD, 1,
		SearchOptions{}, BatchOptions{Workers: 4 * runtime.GOMAXPROCS(0)})
	if err == nil {
		t.Fatal("hard error must surface from the batch")
	}
	if results[bad] != nil {
		t.Fatal("the failed slot must stay nil")
	}
	if got := s.calls.Load(); got > n {
		t.Fatalf("searcher ran %d times for %d queries", got, n)
	}
	for i, res := range results {
		if res != nil && res.Examined != i {
			t.Fatalf("slot %d holds query %d's result", i, res.Examined)
		}
	}
}

// TestSearchParallelMatchesSerialOnRealIndex: the full affinity + stealing
// fan-out over the real in-memory index returns byte-identical candidate
// sequences to serial searches, at workers > GOMAXPROCS.
func TestSearchParallelMatchesSerialOnRealIndex(t *testing.T) {
	idx, ds := engineFixture(t, 300, 51)
	queries := ds.Queries(24, 5, 250, 52)
	workers := 2*runtime.GOMAXPROCS(0) + 1
	for _, op := range []Operator{PSD, SSSD} {
		batch, err := SearchParallel(context.Background(), idx, queries, op, 2,
			SearchOptions{Filters: AllFilters}, BatchOptions{Workers: workers, Admission: NewAdmission(2)})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			serial, err := idx.SearchKCtx(context.Background(), q, op, 2, SearchOptions{Filters: AllFilters})
			if err != nil {
				t.Fatal(err)
			}
			if len(batch[i].Candidates) != len(serial.Candidates) {
				t.Fatalf("%v query %d: batch %d candidates, serial %d",
					op, i, len(batch[i].Candidates), len(serial.Candidates))
			}
			for j := range serial.Candidates {
				if batch[i].Candidates[j].Object.ID() != serial.Candidates[j].Object.ID() {
					t.Fatalf("%v query %d: candidate %d differs", op, i, j)
				}
			}
		}
	}
}

// TestSearchParallelScales catches serialisation of the read path: over
// the real in-memory index, four workers must clear twice the one-worker
// throughput where there are four procs, and two workers 1.25× where there
// are two or three. A shared lock or a contended pool on the search path
// shows up as a speed-up near 1×; drift in the absolute numbers is the
// benchmark's job, not this test's. Each side is the best of three batches,
// and of as many more as fit in scaleBudget while the gate is not met: a
// batch is a few milliseconds, so under `go test ./...`, where a sibling
// package's tests hold a proc, only some batches run undisturbed and the
// minimum needs more of them to find one — a real serialisation stays near
// 1× however many are taken. Under the race detector a batch is twenty
// times longer, no batch runs undisturbed, and the test skips. For where
// the goroutines wait, run
// `go test -bench ParallelSearch -mutexprofile m.prof -blockprofile b.prof .`.
func TestSearchParallelScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("timing test: the race detector's instrumentation is what it would measure")
			}
		}
	}
	workers, want := 4, 2.0
	switch p := runtime.GOMAXPROCS(0); {
	case p < 2:
		t.Skipf("GOMAXPROCS=%d: a speed-up needs a second proc", p)
	case p < 4:
		workers, want = 2, 1.25
	}
	idx, ds := engineFixture(t, 600, 61)
	queries := ds.Queries(96, 5, 250, 62)
	batchSeconds := func(workers int) float64 {
		start := time.Now()
		if _, err := SearchParallel(context.Background(), idx, queries, PSD, 1,
			SearchOptions{Filters: AllFilters}, BatchOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	batchSeconds(workers) // warm the scratch pool
	const scaleBudget = 3 * time.Second
	start := time.Now()
	one, many := batchSeconds(1), batchSeconds(workers)
	for round := 1; round < 3 || (one/many < want && time.Since(start) < scaleBudget); round++ {
		one, many = min(one, batchSeconds(1)), min(many, batchSeconds(workers))
	}
	if speedup := one / many; speedup < want {
		t.Fatalf("%d workers ran the batch in %.1f ms, 1 worker in %.1f ms: speed-up %.2fx, want >= %.2fx",
			workers, many*1e3, one*1e3, speedup, want)
	}
}
