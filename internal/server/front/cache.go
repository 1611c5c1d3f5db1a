package front

// The door's one table: a sharded, byte-bounded LRU keyed by the canonical
// query Key that holds the answers in flight and the answers filled.
// "Semantic" because invalidation is driven by what a mutation can provably
// change (core.AnswerShield's dominance geometry + the result-ID membership
// rule for deletes), not by TTLs or wholesale flushes — and because the
// correctness bar is exact: a kept answer is served only while it is
// bit-identical to what a fresh search would return.
//
// An entry is pending while its leader's search runs — an identical
// arrival joins it and waits on its done channel — and filled once the
// leader lands an answer worth keeping. Staleness is made structurally
// impossible by an epoch tag protocol owned by the Door (door.go):
//
//   - every entry carries the Door epoch it was admitted at;
//   - a lookup hits, joins or replaces only entries tagged with the
//     *current* epoch;
//   - a mutation, under the Door's mutation mutex, sweeps every shard —
//     dropping pending entries (their search may straddle it) and entries
//     whose tag is behind, evicting filled entries the mutation could
//     affect and re-tagging the survivors with the incremented epoch — and
//     only then publishes the new epoch;
//   - a leader's answer is kept only if its own entry is still in the
//     table: any sweep since its admission has removed it.
//
// So an entry's tag equals the current epoch only if every mutation since
// its fill has individually proven it unaffected. The shard locks guard
// map+list manipulation only — no search, no I/O, no allocation beyond a
// pending entry and list nodes happens under them.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
)

// cacheShards is the fixed shard count; a power of two keeps shardOf
// cheap and 16 ways is plenty below net/http's per-connection goroutines.
const cacheShards = 16

// entry is one answer, in flight or kept.
type entry struct {
	key Key
	// tag is the Door epoch this entry was admitted at, or last proven
	// current at; only entries with tag == current epoch are servable.
	tag uint64
	// done is closed by the leader once res and err are final; a waiter
	// reads them after it. res is served verbatim on a hit (callers treat
	// results as immutable — the HTTP layer already does).
	done chan struct{}
	res  *core.Result
	err  error
	// Set when the answer is kept: its cost against the byte budget, the
	// shield that answers "can this insert change it?" (deletes read the
	// IDs of res.Candidates), and its LRU list node — nil while pending.
	bytes  int64
	shield *core.AnswerShield
	elem   *list.Element
}

// affectedBy reports whether a mutation could change this kept answer: a
// delete of one of its candidates, or an insert its shield cannot rule out.
func (e *entry) affectedBy(m mutation) bool {
	if m.delete {
		for _, c := range e.res.Candidates {
			if c.Object.ID() == m.id {
				return true
			}
		}
		return false
	}
	return !e.shield.ShieldsInsert(m.mbr)
}

// cacheShard is one lock-striped slice of the table.
type cacheShard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // of the kept *entry, front = most recent
	bytes   int64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Fills         int64 `json:"fills"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
	Sweeps        int64 `json:"sweeps"`
}

// resultCache is the sharded table. All epoch decisions live in the Door;
// the table only stores and compares tags it is handed.
type resultCache struct {
	shards [cacheShards]cacheShard
	// budget is each shard's byte bound; an answer costing more is not
	// kept, so a budget below 1 keeps nothing and the table only joins.
	budget int64

	hits          atomic.Int64
	misses        atomic.Int64
	fills         atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	sweeps        atomic.Int64
}

// newResultCache builds a table bounded at maxBytes total, split evenly
// across shards.
func newResultCache(maxBytes int64) *resultCache {
	c := &resultCache{budget: maxBytes / cacheShards}
	for i := range c.shards {
		c.shards[i] = cacheShard{entries: make(map[Key]*entry), lru: list.New()}
	}
	return c
}

// lookup is the door's one question of the table, under one shard lock: a
// current kept entry is a hit (res is its answer); a current pending entry
// is joined (e, and leader false); otherwise the caller leads a new pending
// entry tagged epoch and must land it. An entry with a stale tag is removed
// on sight — it is not servable evidence.
func (c *resultCache) lookup(key Key, epoch uint64) (res *core.Result, e *entry, leader bool) {
	sh := &c.shards[shardOf(key, cacheShards)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && e.tag != epoch {
		sh.removeLocked(e)
		ok = false
	}
	switch {
	case !ok:
		e = &entry{key: key, tag: epoch, done: make(chan struct{})}
		sh.entries[key] = e
		leader = true
	case e.elem != nil:
		sh.lru.MoveToFront(e.elem)
		res = e.res
	}
	sh.mu.Unlock()
	if res != nil {
		c.hits.Add(1)
		return res, nil, false
	}
	c.misses.Add(1)
	return nil, e, leader
}

// land publishes the leader's outcome to the entry's waiters and keeps the
// answer when shield is non-nil — the door builds one only for a complete
// answer whose cost fits the budget — and the entry is still the table's.
// Otherwise the pending entry leaves the table.
func (c *resultCache) land(e *entry, res *core.Result, err error, shield *core.AnswerShield, cost int64) {
	e.res, e.err = res, err
	sh := &c.shards[shardOf(e.key, cacheShards)]
	sh.mu.Lock()
	switch {
	case sh.entries[e.key] != e:
		// A sweep dropped it, or a later lookup replaced it: the answer
		// may straddle a mutation and is not kept.
	case shield == nil:
		delete(sh.entries, e.key)
	default:
		e.bytes, e.shield = cost, shield
		e.elem = sh.lru.PushFront(e)
		sh.bytes += cost
		for sh.bytes > c.budget {
			sh.removeLocked(sh.lru.Back().Value.(*entry))
			c.evictions.Add(1)
		}
		c.fills.Add(1)
	}
	sh.mu.Unlock()
	close(e.done)
}

// removeLocked unlinks e from its shard; the caller holds the shard lock.
func (sh *cacheShard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	if e.elem != nil {
		sh.lru.Remove(e.elem)
		sh.bytes -= e.bytes
	}
}

// mutation describes one committed dataset change for the sweep.
type mutation struct {
	delete bool
	id     int
	mbr    geom.Rect
}

// sweep walks every entry once: pending entries and entries whose tag is
// not the current epoch (newTag-1) leave — neither counts as an
// invalidation — kept answers the mutation could affect are evicted, and
// the survivors are re-tagged to the post-mutation epoch. It runs under
// the Door's mutation mutex (one sweep at a time); shard locks are taken
// one at a time, so lookups on other shards proceed concurrently — they can
// only be answered from entries already re-tagged, because the new epoch
// is published after the sweep finishes.
//
// A pending entry's search may have read the dataset before this mutation,
// so its answer is never kept (its waiters, admitted before the new epoch,
// still get it). A dead-tagged entry was admitted between an earlier sweep
// and that sweep's epoch store, so it was never tested against that
// mutation; re-tagging it here would bring it back to life stale.
func (c *resultCache) sweep(m mutation, newTag uint64) {
	c.sweeps.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			switch {
			case e.elem == nil || e.tag != newTag-1:
				sh.removeLocked(e)
			case e.affectedBy(m):
				sh.removeLocked(e)
				c.invalidations.Add(1)
			default:
				e.tag = newTag
			}
		}
		sh.mu.Unlock()
	}
}

// stats snapshots the counters; Entries counts kept answers only.
func (c *resultCache) stats() CacheStats {
	s := CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Sweeps:        c.sweeps.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += int64(sh.lru.Len())
		sh.mu.Unlock()
	}
	return s
}
