package core

// Parallel batch search: queries are independent (each search builds its
// own Checker and scratch, and both built-in backends are internally
// sharded), so a query batch is embarrassingly parallel. This file is the
// one fan-out loop every caller shares — the public API and the HTTP
// server's batch endpoint both funnel through it. The contention
// machinery it leans on (per-worker scratch affinity, the work-stealing
// segment queue, batch admission) lives in batch.go.

import (
	"context"
	"runtime"
	"sync"

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
// goroutines, and returns the results in input order. Each worker
// goroutine is pinned to one engine scratch for the whole batch (no
// per-query pool traffic), owns a contiguous segment of the query slice on
// a private cache line, and steals single queries from the back of the
// fullest remaining segment once its own is drained — heavy PSD queries at
// the tail shed work instead of convoying the batch.
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

	queue := newWorkQueue(len(queries), workers)
	scratches := acquireScratches(workers)
	defer releaseScratches(scratches)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One context per worker: it carries the worker's pinned
			// scratch to every SearchBackend call the searcher makes on
			// this goroutine.
			//nnc:allow scratch-escape: batch-scoped affinity — the worker holds its scratch for the whole batch and wg.Wait() runs before releaseScratches returns them to the pool
			wctx := withPinnedScratch(ctx, scratches[w])
			for {
				i, ok := queue.next(w)
				if !ok || ctx.Err() != nil {
					return
				}
				if bo.Admission != nil {
					if bo.Admission.acquire(ctx) != nil {
						return // batch canceled while waiting for a token
					}
				}
				res, err := s.SearchKCtx(wctx, queries[i], op, k, opts)
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
		}(w)
	}
	wg.Wait()
	return results, firstErr
}
