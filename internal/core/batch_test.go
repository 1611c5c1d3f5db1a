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
