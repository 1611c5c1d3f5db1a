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
//   - a lookup hits or joins an entry tagged with its clock or later, and
//     replaces only an entry tagged behind it;
//   - a mutation, under the Door's mutation mutex, sweeps every shard —
//     dropping pending entries (their search may straddle it) and entries
//     whose tag is behind, evicting filled entries the mutation could
//     affect and re-tagging the survivors with the incremented epoch — and
//     only then publishes the new epoch;
//   - a leader's answer is kept only if its own entry is still in the
//     table: any sweep since its admission has removed it.
//
// So an entry's tag equals the current epoch only if every mutation since
// its fill has individually proven it unaffected. A reader holding the clock
// from before an in-flight sweep may meet an entry that sweep has already
// re-tagged one ahead: it was proven current for both epochs, so it is
// served, never removed. The shard locks guard
// map+list manipulation only — no search, no I/O, no allocation beyond a
// pending entry and list nodes happens under them.
//
// A kept entry filled by a /query may also carry an alias: the exact bytes
// of the body that asked for it, in a second table sharded by those bytes,
// so a byte-identical repeat finds the entry before anything is decoded.
// An alias is the full body, never a hash, so it cannot name another
// query's answer; it is served under the same test as the key, and leaves
// inside the critical section that removes its entry. Alias locks are only
// ever taken inside an entry shard's lock or alone, never the other way
// round.

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
	// current at; an entry tagged behind a reader's clock is not servable.
	tag uint64
	// done is closed by the leader once res and err are final; a waiter
	// reads them after it. res is served verbatim on a hit (callers treat
	// results as immutable — the HTTP layer already does).
	done chan struct{}
	res  *core.Result
	err  error
	// Set when the answer is kept: its cost against the byte budget, the
	// shield that answers "can this insert change it?", the candidate-ID
	// signature that answers most deletes (bit id&63 per candidate; a set
	// bit sends the delete to the IDs of res.Candidates), its LRU list
	// node — nil while pending — and the body of the /query that filled
	// it, if one did.
	bytes  int64
	shield *core.AnswerShield
	sig    uint64
	elem   *list.Element
	alias  string
}

// idBit is an object id's bit in an entry's candidate-ID signature.
func idBit(id int) uint64 { return 1 << (uint(id) & 63) }

// affectedBy reports whether a mutation could change this kept answer: a
// delete of one of its candidates, or an insert its shield cannot rule out.
func (e *entry) affectedBy(m mutation) bool {
	if m.delete {
		if e.sig&idBit(m.id) == 0 {
			return false
		}
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

// aliasShard is one lock-striped slice of the alias table: filling body →
// kept entry.
type aliasShard struct {
	mu      sync.Mutex
	entries map[string]*entry
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
	shards  [cacheShards]cacheShard
	aliases [cacheShards]aliasShard
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
		c.aliases[i].entries = make(map[string]*entry)
	}
	return c
}

// lookup is the door's one question of the table, under one shard lock: a
// current kept entry is a hit (res is its answer); a current pending entry
// is joined (e, and leader false); otherwise the caller leads a new pending
// entry tagged epoch and must land it. Current means tagged epoch or later;
// an entry tagged behind epoch is removed on sight — it is not servable
// evidence.
func (c *resultCache) lookup(key Key, epoch uint64) (res *core.Result, e *entry, leader bool) {
	sh := &c.shards[shardOf(key, cacheShards)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && e.tag < epoch {
		c.removeLocked(sh, e)
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

// repeat is lookup for a /query body that filled a kept entry: the entry's
// answer, operator and k when the entry is still the table's, current and
// asks for k <= n objects. Anything else is no answer and counts nothing —
// the caller decodes the body and asks lookup — except that an entry tagged
// behind epoch is removed on sight, as lookup would.
func (c *resultCache) repeat(body []byte, epoch uint64, n int) (*core.Result, core.Operator, int) {
	as := &c.aliases[shardOf(body, cacheShards)]
	as.mu.Lock()
	e := as.entries[string(body)]
	as.mu.Unlock()
	if e == nil {
		return nil, 0, 0
	}
	op, k := e.key.head()
	if k > n {
		return nil, 0, 0
	}
	var res *core.Result
	sh := &c.shards[shardOf(e.key, cacheShards)]
	sh.mu.Lock()
	switch {
	case sh.entries[e.key] != e:
		// It left between the two locks; its alias went with it.
	case e.tag < epoch:
		c.removeLocked(sh, e)
	default:
		sh.lru.MoveToFront(e.elem)
		res = e.res
	}
	sh.mu.Unlock()
	if res == nil {
		return nil, 0, 0
	}
	c.hits.Add(1)
	return res, op, k
}

// land publishes the leader's outcome to the entry's waiters and keeps the
// answer when shield is non-nil — the door builds one only for a complete
// answer whose cost fits the budget — and the entry is still the table's;
// a non-empty alias is then the body that now finds it. Otherwise the
// pending entry leaves the table.
func (c *resultCache) land(e *entry, res *core.Result, err error, shield *core.AnswerShield, cost int64, alias string) {
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
		for _, c := range res.Candidates {
			e.sig |= idBit(c.Object.ID())
		}
		e.elem = sh.lru.PushFront(e)
		sh.bytes += cost
		if alias != "" {
			e.alias = alias
			as := &c.aliases[shardOf(alias, cacheShards)]
			as.mu.Lock()
			as.entries[alias] = e
			as.mu.Unlock()
		}
		for sh.bytes > c.budget {
			c.removeLocked(sh, sh.lru.Back().Value.(*entry))
			c.evictions.Add(1)
		}
		c.fills.Add(1)
	}
	sh.mu.Unlock()
	close(e.done)
}

// removeLocked unlinks e from its shard, and its alias from the alias
// table; the caller holds the shard lock.
func (c *resultCache) removeLocked(sh *cacheShard, e *entry) {
	delete(sh.entries, e.key)
	if e.elem != nil {
		sh.lru.Remove(e.elem)
		sh.bytes -= e.bytes
	}
	if e.alias != "" {
		as := &c.aliases[shardOf(e.alias, cacheShards)]
		as.mu.Lock()
		delete(as.entries, e.alias)
		as.mu.Unlock()
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
//
// A kept entry's verdict is O(d) in the usual case: a delete whose id's
// signature bit is clear, or an insert its shield decides by distance
// alone (core.AnswerShield.ShieldsInsert).
//
//nnc:hotpath
func (c *resultCache) sweep(m mutation, newTag uint64) {
	c.sweeps.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			switch {
			case e.elem == nil || e.tag != newTag-1:
				c.removeLocked(sh, e)
			case e.affectedBy(m):
				c.removeLocked(sh, e)
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
