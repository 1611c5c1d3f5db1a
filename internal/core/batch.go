package core

// Batch execution context: the machinery that makes SearchParallel scale
// on real cores instead of merely spawning goroutines.
//
// Three independent contention sources are addressed here:
//
//  1. Scratch affinity. A single sync.Pool behind every search means a
//     parallel batch does one Get and one Put per query — each a shared
//     per-P structure touch, and under oversubscription an arena built hot
//     on one core migrates to another, dragging its cache footprint along.
//     A batch instead pins one *searchScratch to each worker for the whole
//     batch (acquireScratches/releaseScratches), handed to the engine
//     through the worker's context; single-shot searches keep the pool.
//
//  2. Work distribution. A lone atomic "next query" counter is one cache
//     line every worker bounces on every dequeue, and a run of heavy PSD
//     queries at the tail serializes behind it. The batch is split into
//     one contiguous segment per worker — each segment's bounds live on
//     their own cache line — so the steady-state dequeue touches only the
//     worker's own line. Workers that drain their segment steal single
//     queries from the back of the richest remaining segment, so stragglers
//     shed their tail instead of convoying the batch.
//
//  3. Admission. One huge batch must not starve every concurrent caller of
//     the same process. An Admission is a token bucket shared by any number
//     of batches; a worker holds a token only while executing one query, so
//     competing batches interleave at query granularity instead of queuing
//     whole-batch behind whole-batch.

import (
	"context"
	"sync/atomic"
)

// --- work-stealing distribution ----------------------------------------------

// workSegment is one worker's contiguous slice [lo, hi) of the batch's
// query indices, packed into a single atomic word (hi<<32 | lo) so the
// owner's take-from-front and a thief's take-from-back are both one CAS
// and can never hand out the same index twice. The padding keeps each
// segment on its own cache line: the owner's fast path shares nothing.
type workSegment struct {
	bounds atomic.Uint64
	_      [56]byte
}

func packBounds(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

func unpackBounds(b uint64) (lo, hi uint32) { return uint32(b), uint32(b >> 32) }

// takeFront claims the segment's lowest remaining index (owner side).
func (s *workSegment) takeFront() (int, bool) {
	for {
		b := s.bounds.Load()
		lo, hi := unpackBounds(b)
		if lo >= hi {
			return 0, false
		}
		if s.bounds.CompareAndSwap(b, packBounds(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// takeBack claims the segment's highest remaining index (thief side).
// Stealing from the opposite end keeps thieves off the cache line the
// owner is about to CAS whenever the segment is more than one item deep.
func (s *workSegment) takeBack() (int, bool) {
	for {
		b := s.bounds.Load()
		lo, hi := unpackBounds(b)
		if lo >= hi {
			return 0, false
		}
		if s.bounds.CompareAndSwap(b, packBounds(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// remaining reports how many indices the segment still holds.
func (s *workSegment) remaining() int {
	lo, hi := unpackBounds(s.bounds.Load())
	if lo >= hi {
		return 0
	}
	return int(hi - lo)
}

// workQueue distributes [0, n) over per-worker segments.
type workQueue struct {
	segs []workSegment
}

// newWorkQueue splits n query indices into one balanced contiguous
// segment per worker (the first n%workers segments get the extra item).
func newWorkQueue(n, workers int) *workQueue {
	q := &workQueue{segs: make([]workSegment, workers)}
	base, extra := n/workers, n%workers
	lo := 0
	for w := range q.segs {
		hi := lo + base
		if w < extra {
			hi++
		}
		q.segs[w].bounds.Store(packBounds(uint32(lo), uint32(hi)))
		lo = hi
	}
	return q
}

// next returns the next query index for worker self: its own segment's
// front while it lasts, then single steals from the back of whichever
// victim has the most work left. Returns false only when every segment
// is empty.
func (q *workQueue) next(self int) (int, bool) {
	if i, ok := q.segs[self].takeFront(); ok {
		return i, true
	}
	for {
		best, bestRem := -1, 0
		for v := range q.segs {
			if v == self {
				continue
			}
			if r := q.segs[v].remaining(); r > bestRem {
				best, bestRem = v, r
			}
		}
		if best < 0 {
			return 0, false
		}
		if i, ok := q.segs[best].takeBack(); ok {
			return i, true
		}
		// Lost the race for the victim's last items; rescan. Total
		// remaining work shrank, so this terminates.
	}
}

// --- batch admission ---------------------------------------------------------

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

// --- pinned per-worker scratch -----------------------------------------------

// pinnedScratchKey carries a batch worker's scratch through the context to
// SearchBackend, which then skips the pool entirely. The key is private to
// this package: only SearchParallel plants it, and the value never
// crosses an API boundary.
type pinnedScratchKey struct{}

// withPinnedScratch hands sc to every engine search run under the
// returned context. The caller owns sc's lifetime and must not run two
// searches under the same context concurrently.
func withPinnedScratch(ctx context.Context, sc *searchScratch) context.Context {
	return context.WithValue(ctx, pinnedScratchKey{}, sc)
}

// pinnedScratch recovers the batch worker's scratch, if any.
func pinnedScratch(ctx context.Context) (*searchScratch, bool) {
	sc, ok := ctx.Value(pinnedScratchKey{}).(*searchScratch)
	return sc, ok
}

// acquireScratches takes n scratches out of the pool for a batch's
// workers. Taking them up front (instead of per query) is the whole
// point: each worker reuses one arena for its entire share of the batch,
// so the slabs reach their high-water sizes once and stay cache-resident
// on the core that fills them.
func acquireScratches(n int) []*searchScratch {
	scs := make([]*searchScratch, n)
	for i := range scs {
		scs[i] = scratchPool.Get().(*searchScratch)
	}
	return scs
}

// releaseScratches returns a batch's scratches to the pool. Each scratch
// was cleared by the engine after its last search, so they go back clean.
func releaseScratches(scs []*searchScratch) {
	for _, sc := range scs {
		scratchPool.Put(sc)
	}
}
