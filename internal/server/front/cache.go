package front

// The door's one table: a sharded, byte-bounded LRU keyed by the canonical
// query Key that holds the answers in flight and the answers filled.
// "Semantic" because a mutation touches only the answers it can provably
// change (core.AnswerShield's dominance geometry + the result-ID membership
// rule for deletes), not by TTLs or wholesale flushes, and repairs those
// from what the entry kept (repair.go) — and because the correctness bar is
// exact: a kept answer is served only while it is bit-identical to what a
// fresh search would return.
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
//     whose tag is behind, queueing the filled entries the mutation could
//     affect for repair (or evicting them when their basis cannot repair
//     them) and re-tagging the survivors with the incremented epoch — then
//     installs each repaired answer re-tagged, and only then publishes the
//     new epoch;
//   - a leader's answer is kept only if its own entry is still in the
//     table: any sweep since its admission has removed it.
//
// So an entry's tag equals the current epoch only if every mutation since
// its fill has individually proven it unaffected, or rebuilt it exactly. A
// reader holding the clock from before an in-flight sweep may meet an entry
// that sweep has already re-tagged one ahead: it was proven current for
// both epochs, so it is served, never removed. The shard locks guard
// map+list manipulation only — no search, no repair, no I/O, no allocation
// beyond a pending entry and list nodes happens under them.
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
	"spatialdom/internal/uncertain"
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
	// done is closed by the leader once res and err are final; lookup hands
	// it to every waiter, which then reads them through answer. A kept
	// entry drops it.
	done chan struct{}
	err  error
	// kept is the answer once kept; while the entry is pending only res is
	// set, by the leader's land.
	kept
	// Set when the answer is kept: the ID signature that answers most
	// deletes (bit id&63 per candidate and per out member; a set bit sends
	// the delete to their IDs), its LRU list node — nil while pending —
	// and the body of the /query that filled it, if one did.
	sig   uint64
	elem  *list.Element
	alias string
}

// kept is what a kept answer holds, built by the fill (Door.SearchBody)
// and by a repair (Door.rebuild) and installed by keepLocked. res is served
// verbatim on a hit (callers treat results as immutable — the HTTP layer
// already does); shield answers "can this insert change it?"; bytes is its
// cost against the byte budget (entryCost). The rest is the repair basis
// (repair.go): the tracked set — the answer's candidates and out, the
// other tracked objects, with outDom their exact dominator counts over
// it — which with the live inserts logged after epoch base holds the
// (k+spare)-skyband of the dataset at base, less the objects deleted
// since, and every live object inserted since.
type kept struct {
	res    *core.Result
	shield *core.AnswerShield
	out    []*uncertain.Object
	outDom []int32
	spare  int32
	base   uint64
	bytes  int64
}

// idBit is an object id's bit in an entry's ID signature.
func idBit(id int) uint64 { return 1 << (uint(id) & 63) }

// verdict is what a sweep does with a kept entry.
type verdict uint8

// The mutation cannot change the answer (keep), or it may and the entry is
// rebuilt (repair.go) — which evicts it when its basis turns out unable to
// — or it may and the basis cannot rebuild it (evict).
const (
	keep verdict = iota
	repair
	evict
)

// verdictOn decides what m does to this kept answer. A delete of a tracked
// object inserted after the base is repaired; of any other candidate or out
// member — a base member either way — repaired while the basis has spare,
// evicted once it has none; of anything else it changes nothing. An insert
// the shield cannot rule out is repaired.
func (e *entry) verdictOn(m mutation) verdict {
	if m.delete {
		if e.sig&idBit(m.id) == 0 || !e.holds(m.id) {
			return keep
		}
		if m.born > e.base || e.spare > 0 {
			return repair
		}
		return evict
	}
	if e.shield.ShieldsInsert(m.mbr) {
		return keep
	}
	return repair
}

// holds reports whether id is one of the answer's candidates or out
// members.
func (e *entry) holds(id int) bool {
	if answers(e.res, id) {
		return true
	}
	for _, o := range e.out {
		if o.ID() == id {
			return true
		}
	}
	return false
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

// CacheStats is a point-in-time counter snapshot. Invalidations counts the
// kept answers mutations evicted, RepairFallbacks the part of them a
// repair was due for but could not be made (repair.go), and Repairs the
// answers mutations changed that were rebuilt in place.
type CacheStats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Evictions       int64 `json:"evictions"`
	Invalidations   int64 `json:"invalidations"`
	Repairs         int64 `json:"repairs"`
	RepairFallbacks int64 `json:"repair_fallbacks"`
	Bytes           int64 `json:"bytes"`
	Entries         int64 `json:"entries"`
}

// resultCache is the sharded table. All epoch decisions live in the Door;
// the table only stores and compares tags it is handed.
type resultCache struct {
	shards  [cacheShards]cacheShard
	aliases [cacheShards]aliasShard
	// budget is each shard's byte bound; an answer costing more is not
	// kept, so a budget below 1 keeps nothing and the table only joins.
	budget int64

	// queue is the entries the running sweep found due for repair; only
	// the holder of the Door's mutation mutex touches it.
	queue []*entry

	hits            atomic.Int64
	misses          atomic.Int64
	evictions       atomic.Int64
	invalidations   atomic.Int64
	repairs         atomic.Int64
	repairFallbacks atomic.Int64
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
// is joined (wait is its done channel: once it closes, answer reads the
// outcome); otherwise the caller leads a new pending entry e tagged epoch
// and must land it. Current means tagged epoch or later; an entry tagged
// behind epoch is removed on sight — it is not servable evidence.
func (c *resultCache) lookup(key Key, epoch uint64) (res *core.Result, e *entry, wait <-chan struct{}) {
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
	case e.elem != nil:
		sh.lru.MoveToFront(e.elem)
		res = e.res
	default:
		wait = e.done
	}
	sh.mu.Unlock()
	if res != nil {
		c.hits.Add(1)
		return res, nil, nil
	}
	c.misses.Add(1)
	return nil, e, wait
}

// answer is the outcome a joined leader landed, read under the shard lock:
// a repair may have replaced the answer since.
func (c *resultCache) answer(e *entry) (*core.Result, error) {
	sh := &c.shards[shardOf(e.key, cacheShards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.res, e.err
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

// land publishes the leader's outcome to the entry's waiters and keeps k
// when it is non-nil — the door builds one only for a complete answer res
// whose cost fits the budget — and the entry is still the table's; a
// non-empty alias is then the body that now finds it. Otherwise the
// pending entry leaves the table.
func (c *resultCache) land(e *entry, res *core.Result, err error, k *kept, alias string) {
	sh := &c.shards[shardOf(e.key, cacheShards)]
	sh.mu.Lock()
	e.res, e.err = res, err
	done := e.done
	switch {
	case sh.entries[e.key] != e:
		// A sweep dropped it, or a later lookup replaced it: the answer
		// may straddle a mutation and is not kept.
	case k == nil:
		delete(sh.entries, e.key)
	default:
		e.done = nil
		e.elem = sh.lru.PushFront(e)
		if alias != "" {
			e.alias = alias
			as := &c.aliases[shardOf(alias, cacheShards)]
			as.mu.Lock()
			as.entries[alias] = e
			as.mu.Unlock()
		}
		c.keepLocked(sh, e, k)
	}
	sh.mu.Unlock()
	close(done)
}

// keepLocked makes k e's kept answer — its record, its ID signature and
// its share of the shard's bytes — then trims the shard to its budget,
// which may evict e itself. The caller holds the shard lock, and e is in
// the LRU list.
func (c *resultCache) keepLocked(sh *cacheShard, e *entry, k *kept) {
	sh.bytes += k.bytes - e.bytes
	e.kept = *k
	e.sig = signature(k.res.Candidates, k.out)
	c.trimLocked(sh)
}

// signature is the ID signature of an answer's candidates and out members.
func signature(cands []core.Candidate, out []*uncertain.Object) uint64 {
	var sig uint64
	for _, c := range cands {
		sig |= idBit(c.Object.ID())
	}
	for _, o := range out {
		sig |= idBit(o.ID())
	}
	return sig
}

// trimLocked evicts least-recent entries until the shard fits its budget;
// the caller holds the shard lock.
func (c *resultCache) trimLocked(sh *cacheShard) {
	for sh.bytes > c.budget {
		c.removeLocked(sh, sh.lru.Back().Value.(*entry))
		c.evictions.Add(1)
	}
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

// mutation describes one committed dataset change for the sweep: the
// deleted id, or the inserted object's MBR. born is the epoch the deleted
// object's insert published, if the door still tracks it (0 if not).
type mutation struct {
	delete bool
	id     int
	mbr    geom.Rect
	born   uint64
}

// sweep walks every entry once: pending entries and entries whose tag is
// not the current epoch (newTag-1) leave — neither counts as an
// invalidation — kept answers the mutation could affect are queued for
// repair or evicted, and the survivors are re-tagged to the post-mutation
// epoch. It runs under the Door's mutation mutex (one sweep at a time);
// shard locks are taken one at a time, so lookups on other shards proceed
// concurrently — they can only be answered from entries already re-tagged,
// or from queued entries still tagged with the current epoch, because the
// new epoch is published after the repairs are installed.
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
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.elem == nil || e.tag != newTag-1 {
				c.removeLocked(sh, e)
				continue
			}
			switch e.verdictOn(m) {
			case keep:
				e.tag = newTag
			case repair:
				c.queue = append(c.queue, e)
			case evict:
				c.removeLocked(sh, e)
				c.invalidations.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// install makes k, a repaired answer, e's kept answer re-tagged newTag,
// or, with k nil, evicts e as a repair fallback — either only while e is
// still the table's: it may have left since the sweep queued it.
func (c *resultCache) install(e *entry, k *kept, newTag uint64) {
	sh := &c.shards[shardOf(e.key, cacheShards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries[e.key] != e {
		return
	}
	if k == nil {
		c.removeLocked(sh, e)
		c.invalidations.Add(1)
		c.repairFallbacks.Add(1)
		return
	}
	e.tag = newTag
	c.repairs.Add(1)
	c.keepLocked(sh, e, k)
}

// stats snapshots the counters; Entries counts kept answers only.
func (c *resultCache) stats() CacheStats {
	s := CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		Invalidations:   c.invalidations.Load(),
		Repairs:         c.repairs.Load(),
		RepairFallbacks: c.repairFallbacks.Load(),
	}
	s.Bytes, s.Entries = c.size()
	return s
}

// size is the bytes and the number of the kept answers, each shard locked
// once.
func (c *resultCache) size() (bytes, entries int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes += sh.bytes
		entries += int64(sh.lru.Len())
		sh.mu.Unlock()
	}
	return bytes, entries
}
