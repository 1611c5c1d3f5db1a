package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdom/internal/uncertain"
)

// searcherFunc adapts a function to the KSearcher interface for batch
// semantics tests that don't need a real index.
type searcherFunc func(ctx context.Context, q *uncertain.Object) (*Result, error)

func (f searcherFunc) SearchKCtx(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	return f(ctx, q)
}

// fakeQueries builds n 1-D single-instance query objects with IDs 0..n-1.
func fakeQueries(t *testing.T, n int) []*uncertain.Object {
	t.Helper()
	qs := make([]*uncertain.Object, n)
	for i := range qs {
		qs[i] = obj1d(t, i, float64(i))
	}
	return qs
}

// TestWorkQueueClaimsEachIndexOnce hammers one queue from many goroutines
// (owners draining their own segments, then stealing) and asserts every
// index in [0, n) is handed out exactly once.
func TestWorkQueueClaimsEachIndexOnce(t *testing.T) {
	const n, workers = 10000, 8
	q := newWorkQueue(n, workers)
	var claimed [n]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := q.next(w)
				if !ok {
					return
				}
				claimed[i].Add(1)
			}
		}(w)
	}
	wg.Wait()
	for i := range claimed {
		if got := claimed[i].Load(); got != 1 {
			t.Fatalf("index %d claimed %d times", i, got)
		}
	}
}

// TestWorkQueueSegmentsBalanced: the initial split is contiguous and
// balanced to within one item.
func TestWorkQueueSegmentsBalanced(t *testing.T) {
	q := newWorkQueue(10, 4)
	want := [][2]uint32{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for w, b := range want {
		lo, hi := unpackBounds(q.segs[w].bounds.Load())
		if lo != b[0] || hi != b[1] {
			t.Fatalf("segment %d = [%d,%d), want [%d,%d)", w, lo, hi, b[0], b[1])
		}
	}
}

// TestWorkQueueStealFromBack: a thief takes the victim's highest index
// while the owner keeps taking its lowest.
func TestWorkQueueStealFromBack(t *testing.T) {
	q := newWorkQueue(8, 2) // segments [0,4) and [4,8)
	// Drain worker 1's own segment.
	for j := 0; j < 4; j++ {
		if i, ok := q.next(1); !ok || i != 4+j {
			t.Fatalf("worker 1 own take %d = %d,%v", j, i, ok)
		}
	}
	// Its next take must steal from the back of worker 0's segment.
	if i, ok := q.next(1); !ok || i != 3 {
		t.Fatalf("steal = %d,%v; want 3,true", i, ok)
	}
	if i, ok := q.next(0); !ok || i != 0 {
		t.Fatalf("owner front = %d,%v; want 0,true", i, ok)
	}
}

// TestAdmissionCapsConcurrency: with a shared Admission of limit L, the
// number of concurrently executing searches across competing batches never
// exceeds L, even with far more workers than tokens.
func TestAdmissionCapsConcurrency(t *testing.T) {
	const limit = 2
	adm := NewAdmission(limit)
	if adm.Limit() != limit {
		t.Fatalf("Limit() = %d, want %d", adm.Limit(), limit)
	}
	var cur, peak atomic.Int32
	s := searcherFunc(func(ctx context.Context, q *uncertain.Object) (*Result, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return &Result{}, nil
	})
	queries := fakeQueries(t, 64)
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ { // three competing batches share the gate
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := SearchParallel(context.Background(), s, queries, PSD, 1,
				SearchOptions{}, BatchOptions{Workers: 8, Admission: adm})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrent searches %d exceeds admission limit %d", p, limit)
	}
}

// TestAdmissionHonorsCancel: a worker blocked on a token exits when the
// batch context is canceled instead of deadlocking.
func TestAdmissionHonorsCancel(t *testing.T) {
	adm := NewAdmission(1)
	// Hold the only token for the duration of the test.
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SearchParallel(ctx, searcherFunc(func(context.Context, *uncertain.Object) (*Result, error) {
			return &Result{}, nil
		}), fakeQueries(t, 4), PSD, 1, SearchOptions{}, BatchOptions{Workers: 2, Admission: adm})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not exit after cancel while waiting for admission")
	}
}

// TestPinnedScratchUsedAndCleared: a search run under a pinned-scratch
// context must populate that scratch (proving the pool was bypassed) and
// leave it cleared for the worker's next query.
func TestPinnedScratchUsedAndCleared(t *testing.T) {
	idx, ds := engineFixture(t, 150, 41)
	q := ds.Queries(1, 4, 200, 42)[0]
	sc := new(searchScratch)
	ctx := withPinnedScratch(context.Background(), sc)
	if _, err := idx.SearchKCtx(ctx, q, PSD, 1, SearchOptions{Filters: AllFilters}); err != nil {
		t.Fatal(err)
	}
	if cap(sc.heap.s) == 0 && cap(sc.band.objs) == 0 {
		t.Fatal("pinned scratch was never used; search went to the pool")
	}
	if len(sc.heap.s) != 0 || len(sc.band.objs) != 0 || len(sc.batch) != 0 {
		t.Fatalf("pinned scratch not cleared after search: heap=%d band=%d batch=%d",
			len(sc.heap.s), len(sc.band.objs), len(sc.batch))
	}
	// The same scratch must back a second search without issue.
	if _, err := idx.SearchKCtx(ctx, q, PSD, 1, SearchOptions{Filters: AllFilters}); err != nil {
		t.Fatal(err)
	}
}
