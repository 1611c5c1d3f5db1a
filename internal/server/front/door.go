package front

// Door is the front door proper: a server.Backend decorator that answers
// repeated queries from the semantic result cache, collapses identical
// concurrent queries into one engine execution, and intercepts mutations
// to keep the cache precisely correct. Both halves are one table
// (cache.go): an answer in flight and an answer kept are the same entry
// under the same canonical key. It slots between the HTTP server and any
// real backend:
//
//	srv := server.NewBackend(front.NewDoor(backend, front.DoorConfig{}))
//
// Correctness contract: a Door-served answer is always bit-identical to
// what a fresh search against the current snapshot would return.
// Volatile statistics (elapsed time, examined counts) are whatever the
// search that filled the entry measured, or the step that last repaired
// it — a cached Result is the same Result object, so even those bytes are
// reproduced verbatim; only the candidate list carries semantic weight and
// its exactness is what the epoch/shield/repair machinery guarantees (see
// cache.go and repair.go).

import (
	"context"
	"errors"
	"slices"
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

// Door implements server.Backend, server.Mutator and server.Repeater over
// an inner backend. It deliberately implements no other capability
// interface — the server reaches ObjectLister/HealthChecker/... through
// Inner().
type Door struct {
	inner server.Backend
	mut   server.Mutator // inner's mutation capability, nil if absent

	// cache is the one table of answers in flight and kept; with caching
	// disabled its budget keeps nothing and it only coalesces.
	cache *resultCache

	// epoch is the Door's mutation clock. It is read by every lookup, and
	// advanced only under mutMu after a sweep (see cache.go for why that
	// ordering makes stale answers unservable).
	epoch atomic.Uint64
	// mutMu serializes mutations with their sweeps and repairs so two
	// sweeps can never interleave re-tagging.
	mutMu sync.Mutex
	// inserts is the log of live objects inserted through the door that
	// fills and repairs read (repair.go).
	inserts insertLog

	coalesceHits atomic.Int64
}

// epocher is the optional inner-backend epoch capability (the mutable
// disk index implements it); used only to seed the Door clock so epochs
// in logs correlate across layers.
type epocher interface{ Epoch() uint64 }

// NewDoor wraps inner with caching and coalescing.
func NewDoor(inner server.Backend, cfg DoorConfig) *Door {
	budget := cfg.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	d := &Door{inner: inner, cache: newResultCache(budget)}
	d.mut, _ = inner.(server.Mutator)
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

// Repeat implements server.Repeater: the kept answer a byte-identical
// /query body filled, counted as the cache hit it is, while it is servable
// exactly as lookup would serve it and its k is at most Len.
//
//nnc:hotpath
func (d *Door) Repeat(body []byte) (*core.Result, core.Operator, int) {
	return d.cache.repeat(body, d.epoch.Load(), d.Len())
}

// SearchKCtx is the read path: one lookup hits, joins or leads.
func (d *Door) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	return d.SearchBody(ctx, nil, q, op, k, opts)
}

// SearchBody implements server.Repeater: SearchKCtx for a /query whose
// body was body, which becomes the alias of the entry its answer fills.
// A hit or a join runs no search, so opts.OnCandidate is never called on
// them.
func (d *Door) SearchBody(ctx context.Context, body []byte, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	m := opts.Metric
	if m == nil {
		m = geom.Euclidean
	}
	key := canonicalKey(q, op, k, m, opts.Filters)
	// The lookup is tagged with the clock as of *before* the search, so a
	// mutation landing mid-search drops the entry rather than keep an
	// answer that may be stale.
	epoch := d.epoch.Load()
	res, e, wait := d.cache.lookup(key, epoch)
	switch {
	case res != nil:
		return res, nil
	case wait != nil:
		d.coalesceHits.Add(1)
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if res, err := d.cache.answer(e); err == nil {
			return res, nil
		}
		// The leader failed — most often its own client hung up and took
		// its context with it. This request is still live, so run the
		// search directly instead of inheriting a stranger's failure.
		return d.inner.SearchKCtx(ctx, q, op, k, opts)
	}

	res, err := d.inner.SearchKCtx(ctx, q, op, k, opts)
	// Only a complete answer that fits the budget is kept: a degraded one
	// (quarantined pages skipped) is already flagged best-effort, and the
	// pages may heal. Its basis is at the epoch the entry was admitted at.
	var kp *kept
	var alias string
	if err == nil && res != nil && !res.Incomplete && d.cache.budget > 0 {
		res.Candidates = exact(res.Candidates)
		kp = &kept{res: res, shield: core.NewAnswerShield(q, res.Operator, m, k, res.Candidates), base: epoch}
		kp.out, kp.outDom, kp.spare = d.widen(ctx, q, op, k, opts, res)
		if kp.bytes = entryCost(key, len(body), kp); kp.bytes <= d.cache.budget {
			alias = string(body) // the caller reuses its buffer
		} else {
			kp = nil
		}
	}
	d.cache.land(e, res, err, kp, alias)
	return res, err
}

// What a kept entry retains besides its key, alias, shield and answer's
// candidates, in bytes on a 64-bit platform, each rounded up to its
// allocation size class: the entry, its LRU list node and its two map
// slots (key or alias header and entry pointer, at the maps' mean load);
// the core.Result; per candidate a core.Candidate, per out member a
// pointer and its count. The objects belong to the index.
const (
	entryBytes     = 176 + 48 + 2*64
	resultBytes    = 208
	candidateBytes = 40
	pointerBytes   = 8
	countBytes     = 4
)

// exact is cands in a slice of their own length: a kept answer does not
// hold the spare capacity its search appended into.
func exact(cands []core.Candidate) []core.Candidate {
	if cap(cands) == len(cands) {
		return cands
	}
	return slices.Clone(cands)
}

// entryCost sizes a kept entry from what it retains: its key, its alias,
// the answer with the capacity of its candidate slice, the shield, and the
// out members of its repair basis with their counts.
func entryCost(key Key, alias int, k *kept) int64 {
	return int64(len(key)+alias) + entryBytes + resultBytes + int64(cap(k.res.Candidates))*candidateBytes +
		k.shield.Bytes() + int64(cap(k.out))*pointerBytes + int64(cap(k.outDom))*countBytes
}

// --- mutation interception ----------------------------------------------------

// ErrReadOnlyDoor is returned when a mutation reaches a Door over a
// backend with no mutation capability.
var ErrReadOnlyDoor = errors.New("front: inner backend is read-only")

// Mutable implements server.Mutator.
func (d *Door) Mutable() bool { return d.mut != nil && d.mut.Mutable() }

// Insert applies the mutation to the inner backend and, on success,
// logs the object and sweeps the cache: entries whose shield cannot rule
// the new object out are repaired (repair.go), the rest are re-tagged, and
// only then does the new epoch become visible. Failed mutations change
// nothing and sweep nothing.
func (d *Door) Insert(o *uncertain.Object) error {
	if d.mut == nil {
		return ErrReadOnlyDoor
	}
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	if err := d.mut.Insert(o); err != nil {
		return err
	}
	d.inserts.add(o, d.epoch.Load()+1)
	d.advance(mutation{mbr: o.MBR()})
	return nil
}

// Delete applies the deletion and sweeps by the result-ID membership
// rule: only entries whose answer or basis contains the deleted object can
// change (see core/shield.go for the transitivity argument), and of
// those, the ones that gained it by an insert since their base, or whose
// basis has spare, are repaired.
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
	d.advance(mutation{delete: true, id: id, born: d.inserts.remove(id)})
	return true, nil
}

// advance runs the sweep-repair-publish step; the caller holds mutMu.
func (d *Door) advance(m mutation) {
	next := d.epoch.Load() + 1
	d.cache.sweep(m, next)
	d.repairQueued(m, next)
	d.epoch.Store(next)
}

// --- stats --------------------------------------------------------------------

// DoorStats snapshots the Door's serving counters.
type DoorStats struct {
	Cache        CacheStats `json:"cache"`
	CoalesceHits int64      `json:"coalesce_hits"`
	Epoch        uint64     `json:"epoch"`
}

// Stats snapshots the counters.
func (d *Door) Stats() DoorStats {
	return DoorStats{
		Cache:        d.cache.stats(),
		CoalesceHits: d.coalesceHits.Load(),
		Epoch:        d.epoch.Load(),
	}
}
