package front

// Door is the front door proper: a server.Backend decorator that answers
// repeated queries from the semantic result cache, collapses identical
// concurrent queries into one engine execution, and intercepts mutations
// to keep the cache precisely correct. It slots between the HTTP server
// and any real backend:
//
//	srv := server.NewBackend(front.NewDoor(backend, front.DoorConfig{}))
//
// Correctness contract: a Door-served answer is always bit-identical to
// what a fresh search against the current snapshot would return.
// Volatile statistics (elapsed time, examined counts) are whatever the
// *filling* search measured — a cached Result is the same Result object,
// so even those bytes are reproduced verbatim; only the candidate list
// carries semantic weight and its exactness is what the epoch/shield
// machinery guarantees (see cache.go).

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// DoorConfig tunes a Door. The zero value enables everything at the
// default cache size.
type DoorConfig struct {
	// CacheBytes bounds the result cache (total, across shards);
	// 0 means DefaultCacheBytes, negative disables caching.
	CacheBytes int64
}

// DefaultCacheBytes is the default result-cache budget (64 MiB).
const DefaultCacheBytes = 64 << 20

// Door implements server.Backend and server.Mutator over an inner
// backend. It deliberately implements no other capability interface —
// the server reaches ObjectLister/HealthChecker/... through Inner().
type Door struct {
	inner server.Backend
	mut   server.Mutator // inner's mutation capability, nil if absent

	cache *resultCache // nil when caching disabled
	co    *coalescer

	// epoch is the Door's mutation clock. It is read by every lookup and
	// fill, and advanced only under mutMu after a sweep (see cache.go for
	// why that ordering makes stale answers unservable).
	epoch atomic.Uint64
	// mutMu serializes mutations with their sweeps so two sweeps can
	// never interleave re-tagging.
	mutMu sync.Mutex

	coalesceHits    atomic.Int64
	coalesceLeaders atomic.Int64
	bypasses        atomic.Int64
	// negativeHits counts cache hits that served an empty candidate set.
	// Empty answers are cached like any other (the k-skyband of a region
	// the dataset does not reach is a real, provable answer, shielded and
	// invalidated the same way) — the separate counter exists because a
	// high negative rate is an operational signal: clients probing space
	// the deployment does not cover.
	negativeHits atomic.Int64
}

// epocher is the optional inner-backend epoch capability (the mutable
// disk index implements it); used only to seed the Door clock so epochs
// in logs correlate across layers.
type epocher interface{ Epoch() uint64 }

// NewDoor wraps inner with caching and coalescing.
func NewDoor(inner server.Backend, cfg DoorConfig) *Door {
	d := &Door{inner: inner, co: newCoalescer()}
	if m, ok := inner.(server.Mutator); ok {
		d.mut = m
	}
	switch {
	case cfg.CacheBytes == 0:
		d.cache = newResultCache(DefaultCacheBytes)
	case cfg.CacheBytes > 0:
		d.cache = newResultCache(cfg.CacheBytes)
	}
	if e, ok := inner.(epocher); ok {
		d.epoch.Store(e.Epoch())
	}
	return d
}

// Inner returns the wrapped backend, letting the server discover
// capabilities (object listing, health, fault counters) the Door does
// not re-export.
func (d *Door) Inner() server.Backend { return d.inner }

// Len and Dim delegate; both are cheap on every backend.
func (d *Door) Len() int { return d.inner.Len() }
func (d *Door) Dim() int { return d.inner.Dim() }

// Epoch reports the Door's mutation clock (for /healthz and tests).
func (d *Door) Epoch() uint64 { return d.epoch.Load() }

// SearchKCtx is the read path. Streaming searches (OnCandidate) and
// limited traversals are pass-through: their observable behavior is the
// callback sequence, not just the final Result, so sharing another
// request's execution would change what the client sees.
func (d *Door) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	if opts.OnCandidate != nil || opts.Limit > 0 {
		d.bypasses.Add(1)
		return d.inner.SearchKCtx(ctx, q, op, k, opts)
	}
	m := opts.Metric
	if m == nil {
		m = geom.Euclidean
	}
	key := canonicalKey(q, op, k, m, opts.Filters)
	// The epoch is captured before anything else: a fill is tagged with
	// the clock as of *before* its search started, so a mutation landing
	// mid-search leaves the fill unservable rather than stale.
	e := d.epoch.Load()

	if d.cache != nil {
		if res, ok := d.cache.get(key, e); ok {
			if len(res.Candidates) == 0 {
				d.negativeHits.Add(1)
			}
			return res, nil
		}
	}

	fk := flightKey{key: key, epoch: e}
	f, leader := d.co.join(fk)
	if !leader {
		d.coalesceHits.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			return f.res, nil
		}
		// The leader failed — most often its own client hung up and took
		// its context with it. This request is still live, so run the
		// search directly instead of inheriting a stranger's failure.
		return d.inner.SearchKCtx(ctx, q, op, k, opts)
	}

	d.coalesceLeaders.Add(1)
	res, err := d.inner.SearchKCtx(ctx, q, op, k, opts)
	d.co.land(fk, f, res, err)
	d.fill(key, e, q, m, k, res, err)
	return res, err
}

// wireCandidate mirrors the HTTP layer's candidate encoding; the cache
// costs an entry at the size of this payload, measured by encoding it
// once at fill time (the one JSON encode happens on the miss path, where
// a full engine search just ran — it is noise there and buys an honest
// byte bound).
type wireCandidate struct {
	ID         int     `json:"id"`
	Label      string  `json:"label,omitempty"`
	MinDist    float64 `json:"min_dist"`
	Dominators int     `json:"dominators"`
}

// fill stores a completed, non-degraded answer. Degraded results
// (quarantined pages skipped) are never cached: they are already flagged
// best-effort, and the pages may heal.
func (d *Door) fill(key Key, e uint64, q *uncertain.Object, m geom.Metric, k int, res *core.Result, err error) {
	if d.cache == nil || err != nil || res == nil || res.Incomplete {
		return
	}
	if d.epoch.Load() != e {
		// A mutation landed while the search ran; the entry could only
		// ever be dead weight (its tag can never equal a future epoch).
		return
	}
	wire := make([]wireCandidate, len(res.Candidates))
	ids := make([]int, len(res.Candidates))
	for i, c := range res.Candidates {
		wire[i] = wireCandidate{ID: c.Object.ID(), Label: c.Object.Label(), MinDist: c.MinDist, Dominators: c.Dominators}
		ids[i] = c.Object.ID()
	}
	body, merr := json.Marshal(wire)
	if merr != nil {
		return
	}
	shield := core.NewAnswerShield(q, res.Operator, m, k, res.Candidates)
	cost := int64(len(body)) + int64(len(key)) + shieldCost(shield)
	d.cache.put(key, res, cost, shield, ids, e)
}

// shieldCost approximates a shield's in-memory footprint for the byte
// budget: rectangles and hull points, 16 bytes per float64 pair per dim.
func shieldCost(s *core.AnswerShield) int64 {
	return int64(s.Candidates())*32 + 64
}

// --- mutation interception ----------------------------------------------------

// ErrReadOnlyDoor is returned when a mutation reaches a Door over a
// backend with no mutation capability.
var ErrReadOnlyDoor = errors.New("front: inner backend is read-only")

// Mutable implements server.Mutator.
func (d *Door) Mutable() bool { return d.mut != nil && d.mut.Mutable() }

// Insert applies the mutation to the inner backend and, on success,
// sweeps the cache: entries whose shield cannot rule the new object out
// are evicted, the rest are re-tagged, and only then does the new epoch
// become visible. Failed mutations change nothing and sweep nothing.
func (d *Door) Insert(o *uncertain.Object) error {
	if d.mut == nil {
		return ErrReadOnlyDoor
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	if err := d.mut.Insert(o); err != nil {
		return err
	}
	d.advance(mutation{mbr: o.MBR()})
	return nil
}

// Delete applies the deletion and sweeps by the result-ID membership
// rule: only entries whose answer contains the deleted object can
// change (see core/shield.go for the transitivity argument).
func (d *Door) Delete(id int) (bool, error) {
	if d.mut == nil {
		return false, ErrReadOnlyDoor
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	ok, err := d.mut.Delete(id)
	if err != nil || !ok {
		return ok, err
	}
	d.advance(mutation{delete: true, id: id})
	return true, nil
}

// advance runs the sweep-then-publish step; the caller holds mutMu.
func (d *Door) advance(m mutation) {
	next := d.epoch.Load() + 1
	if d.cache != nil {
		d.cache.sweep(m, next)
	}
	d.epoch.Store(next)
}

// --- stats --------------------------------------------------------------------

// DoorStats snapshots the Door's serving counters.
type DoorStats struct {
	Cache           CacheStats `json:"cache"`
	CoalesceHits    int64      `json:"coalesce_hits"`
	CoalesceLeaders int64      `json:"coalesce_leaders"`
	Bypasses        int64      `json:"bypasses"`
	NegativeHits    int64      `json:"negative_hits"`
	Epoch           uint64     `json:"epoch"`
}

// Stats snapshots the counters (cache stats are zero when caching is
// disabled).
func (d *Door) Stats() DoorStats {
	s := DoorStats{
		CoalesceHits:    d.coalesceHits.Load(),
		CoalesceLeaders: d.coalesceLeaders.Load(),
		Bypasses:        d.bypasses.Load(),
		NegativeHits:    d.negativeHits.Load(),
		Epoch:           d.epoch.Load(),
	}
	if d.cache != nil {
		s.Cache = d.cache.stats()
	}
	return s
}
