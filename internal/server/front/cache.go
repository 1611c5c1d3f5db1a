package front

// The semantic result cache: a sharded, byte-bounded LRU of finished
// answers. "Semantic" because invalidation is driven by what a mutation
// can provably change (core.AnswerShield's dominance geometry + the
// result-ID membership rule for deletes), not by TTLs or wholesale
// flushes — and because the correctness bar is exact: a cached answer is
// served only while it is bit-identical to what a fresh search would
// return.
//
// Staleness is made structurally impossible by an epoch tag protocol
// owned by the Door (door.go):
//
//   - every entry carries the Door epoch it was proven current at;
//   - a lookup only returns entries tagged with the *current* epoch;
//   - a mutation, under the Door's mutation mutex, sweeps every shard —
//     evicting entries the mutation could affect and re-tagging the
//     survivors with the incremented epoch — and only then publishes the
//     new epoch.
//
// So an entry's tag equals the current epoch only if every mutation
// since its fill has individually proven it unaffected. A fill racing a
// mutation lands tagged with the pre-mutation epoch and is simply never
// served (the sweep could not have examined it). The shard locks guard
// map+list manipulation only — no search, no I/O, no allocation beyond
// list nodes happens under them.

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

// entry is one cached answer.
type entry struct {
	key Key
	// res is the finished engine result, served verbatim (callers treat
	// results as immutable — the HTTP layer already does).
	res *core.Result
	// body is the wire encoding of the candidate payload, measured once at
	// fill time; its length is the entry's cost against the byte budget.
	bytes int64
	// shield answers "can this insert change the answer?"; deletes use
	// ids directly.
	shield *core.AnswerShield
	// ids holds the result object IDs for the delete rule (sorted not
	// required; linear scan — answers are k-sized, k is small).
	ids []int
	// tag is the Door epoch this entry was last proven current at; only
	// entries with tag == current epoch are servable.
	tag uint64
	// elem is the entry's LRU list node (front = most recent).
	elem *list.Element
}

// affectedBy reports whether a mutation could change this entry's answer:
// a delete of one of its result objects, or an insert its shield cannot
// rule out.
func (e *entry) affectedBy(m mutation) bool {
	if m.delete {
		for _, id := range e.ids {
			if id == m.id {
				return true
			}
		}
		return false
	}
	return !e.shield.ShieldsInsert(m.mbr)
}

// cacheShard is one lock-striped slice of the cache.
type cacheShard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // of *entry
	bytes   int64
	budget  int64
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

// resultCache is the sharded LRU. All epoch decisions live in the Door;
// the cache only stores and compares tags it is handed.
type resultCache struct {
	shards [cacheShards]cacheShard

	hits          atomic.Int64
	misses        atomic.Int64
	fills         atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	sweeps        atomic.Int64
}

// newResultCache builds a cache bounded at maxBytes total (split evenly
// across shards; < 1 disables storage entirely — every fill is dropped).
func newResultCache(maxBytes int64) *resultCache {
	c := &resultCache{}
	per := maxBytes / cacheShards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			entries: make(map[Key]*entry),
			lru:     list.New(),
			budget:  per,
		}
	}
	return c
}

// get returns the cached result for key if it is tagged current.
// Entries with stale tags are removed on sight — they were filled
// concurrently with a mutation and are not servable evidence.
func (c *resultCache) get(key Key, epoch uint64) (*core.Result, bool) {
	sh := &c.shards[shardOf(key, cacheShards)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && e.tag != epoch {
		sh.removeLocked(e)
		ok = false
	}
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(e.elem)
	res := e.res
	sh.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// put stores a finished answer tagged with the epoch captured before its
// search began. Oversized entries (cost > shard budget) are not stored.
func (c *resultCache) put(key Key, res *core.Result, cost int64, shield *core.AnswerShield, ids []int, tag uint64) {
	sh := &c.shards[shardOf(key, cacheShards)]
	if cost > sh.budget {
		return
	}
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.removeLocked(old)
	}
	e := &entry{key: key, res: res, bytes: cost, shield: shield, ids: ids, tag: tag}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.bytes += cost
	for sh.bytes > sh.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.removeLocked(back.Value.(*entry))
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
	c.fills.Add(1)
}

// removeLocked unlinks e from its shard; the caller holds the shard lock.
func (sh *cacheShard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	sh.bytes -= e.bytes
}

// mutation describes one committed dataset change for the sweep.
type mutation struct {
	delete bool
	id     int
	mbr    geom.Rect
}

// sweep walks every entry once, evicting those the mutation could affect
// and re-tagging survivors from the current epoch (newTag-1) to the
// post-mutation one. It runs under the Door's mutation mutex (one sweep at
// a time); shard locks are taken one at a time, so lookups on other shards
// proceed concurrently — they can only be answered from entries already
// re-tagged, because the new epoch is published after the sweep finishes.
//
// An entry whose tag is not the current epoch is dead: its fill landed
// between an earlier sweep and that sweep's epoch store, so it was never
// tested against that mutation. No lookup can serve it, and re-tagging it
// here would bring it back to life stale — it is dropped instead.
func (c *resultCache) sweep(m mutation, newTag uint64) {
	c.sweeps.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			switch {
			case e.tag != newTag-1:
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

// stats snapshots the counters.
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
		s.Entries += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return s
}
