package core

// Parallel batch search: queries are independent (each search builds its
// own Checker on its own pooled scratch, and both built-in backends are
// internally sharded), so a query batch is embarrassingly parallel. This
// file is the one fan-out loop every caller shares — the public API and
// the HTTP server's batch endpoint both funnel through it — and the
// admission gate that keeps one batch from starving the rest of the
// process.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"spatialdom/internal/uncertain"
)

// KSearcher is the minimal context-aware search surface a parallel batch
// needs. *Index and diskindex.Index implement it; so does any custom
// wrapper whose SearchKCtx is safe for concurrent use.
type KSearcher interface {
	SearchKCtx(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error)
}

// BatchOptions tunes one SearchParallel batch.
type BatchOptions struct {
	// Workers is the fan-out width; <= 0 means GOMAXPROCS. The fan-out
	// never exceeds len(queries).
	Workers int
	// Admission, when non-nil, gates every query execution: a worker
	// holds one token per running search, so batches sharing an Admission
	// interleave at query granularity instead of starving each other. The
	// zero value (nil) admits everything immediately.
	Admission *Admission
}

// SearchParallel runs one search per query, fanned out over bo.Workers
// goroutines, and returns the results in input order. Workers claim the
// next query index from one shared counter: a search costs half a
// millisecond or more, so neither that contended add nor the scratch
// pool's Get/Put per query is measurable beside it (DESIGN.md §2f).
//
// The first hard search error cancels the remaining work and is returned
// with the partial results (nil at unfinished positions). Cancelling ctx
// stops the batch the same way. A degraded search (PartialResultError)
// does NOT cancel the batch: its traversal completed, its result is stored
// with Result.Incomplete set, and the remaining queries proceed — one
// quarantined page must not fail a whole batch. opts is shared by every
// search; an OnCandidate callback will therefore be invoked from multiple
// goroutines and must be safe for that.
func SearchParallel(ctx context.Context, s KSearcher, queries []*uncertain.Object, op Operator, k int, opts SearchOptions, bo BatchOptions) ([]*Result, error) {
	results := make([]*Result, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := bo.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) || ctx.Err() != nil {
					return
				}
				if bo.Admission != nil {
					if bo.Admission.acquire(ctx) != nil {
						return // batch canceled while waiting for a token
					}
				}
				res, err := s.SearchKCtx(ctx, queries[i], op, k, opts)
				if bo.Admission != nil {
					bo.Admission.release()
				}
				if err != nil {
					if _, isPartial := AsPartial(err); !isPartial {
						errOnce.Do(func() {
							firstErr = err
							cancel()
						})
						return
					}
					// Degraded but complete: keep the flagged result and
					// keep the batch going.
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return results, firstErr
}

// Admission is a token bucket shared across SearchParallel batches: each
// worker holds one token per executing query, so the total number of
// batch-path searches running at once never exceeds the limit and
// concurrent batches interleave at query granularity — a 10,000-query
// batch cannot lock a 3-query batch (or the process's other work) out of
// the CPUs for its whole duration. A nil *Admission admits everything.
type Admission struct {
	tokens chan struct{}
}

// NewAdmission builds an admission gate that lets at most limit batch
// queries execute concurrently; limit < 1 is clamped to 1.
func NewAdmission(limit int) *Admission {
	if limit < 1 {
		limit = 1
	}
	a := &Admission{tokens: make(chan struct{}, limit)}
	for i := 0; i < limit; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// Limit reports the gate's concurrent-query capacity.
func (a *Admission) Limit() int { return cap(a.tokens) }

// acquire blocks until a token is free or ctx is done.
func (a *Admission) acquire(ctx context.Context) error {
	select {
	case <-a.tokens:
		return nil
	default:
	}
	select {
	case <-a.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a token taken by acquire.
func (a *Admission) release() { a.tokens <- struct{}{} }

// TryAcquire claims a token without blocking. It exists for callers that
// shed load instead of queueing — a serving tier that answers 429 when
// the gate is full must never park a request goroutine here.
func (a *Admission) TryAcquire() bool {
	select {
	case <-a.tokens:
		return true
	default:
		return false
	}
}

// Release returns a token claimed by TryAcquire.
func (a *Admission) Release() { a.release() }

// InFlight reports how many tokens are currently held.
func (a *Admission) InFlight() int { return cap(a.tokens) - len(a.tokens) }
