package pager

import "context"

// Reader is the page-read surface a disk structure traverses: pin a page,
// read it, release it. *Pool implements it directly (shared, atomic
// counters); *Lease implements it with per-search attribution. Structures
// that only ever read (the R-tree search path, the object heap fetch)
// accept a Reader so one search's page traffic can be counted without any
// shared state.
type Reader interface {
	// Get pins page id and returns its buffer; the caller must Unpin.
	Get(id PageID) ([]byte, error)
	// Unpin releases one pin on the page.
	Unpin(id PageID)
}

var (
	_ Reader = (*Pool)(nil)
	_ Reader = (*Lease)(nil)
)

// Lease is a per-search view of a Pool: every Get goes to the shared
// sharded cache, but the hit/miss/read outcome of each call is tallied on
// the lease itself. A lease belongs to exactly one search (one goroutine),
// so its counters need no synchronization and a search's I/O profile is
// exact even while other searches hammer the same pool — the mechanism
// behind per-query Result.IO on the concurrent disk backend.
type Lease struct {
	pool *Pool
	// ctx scopes every page wait of this lease's search: retry backoff
	// sleeps and loading-frame waits abort the moment it is canceled.
	ctx context.Context

	// Hits and Misses count this lease's logical page requests served
	// from / missing the shared cache; Reads counts the physical page
	// transfers its misses triggered (always equal to Misses on the read
	// path).
	Hits, Misses, Reads int64
}

// NewLeaseCtx returns a per-search lease whose page waits (transient-retry
// backoff, in-flight load coalescing) honor ctx — the request context of
// the search the lease belongs to.
func (p *Pool) NewLeaseCtx(ctx context.Context) *Lease {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Lease{pool: p, ctx: ctx}
}

// Get pins page id through the shared pool and attributes the hit or miss
// to this lease.
func (l *Lease) Get(id PageID) ([]byte, error) {
	buf, hit, err := l.pool.get(l.ctx, id)
	if err != nil {
		return nil, err
	}
	if hit {
		l.Hits++
	} else {
		l.Misses++
		l.Reads++
	}
	return buf, nil
}

// Unpin releases one pin on the page.
func (l *Lease) Unpin(id PageID) { l.pool.Unpin(id) }
