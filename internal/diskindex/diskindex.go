// Package diskindex is the disk-resident form of the NN-candidate search:
// object records in a page-file heap (diskstore), object MBRs in a
// disk-resident global R-tree (diskrtree), with every page access counted
// through a buffer pool — the setting the paper's efficiency experiments
// model with 4096-byte pages.
//
// The search itself is not implemented here: searches run through the
// shared engine (core.SearchBackend), so the disk path gets tie-batching,
// k-skyband, filters, metrics and context cancellation identically to the
// in-memory index. Per the paper's memory model, an object whose
// MBR survives pruning is loaded into main memory in full ("we load the
// whole local R-tree into the main memory if it could not be pruned based
// on its MBR"); decoded objects are kept in a bounded LRU so long-running
// servers don't grow without limit.
//
// Concurrency: an Index holds no global lock. SearchKCtx takes a pooled
// per-search session (a pager.Lease over the sharded buffer pool, local
// cache counters, and the corner arena and record buffer that keep a warm
// search from allocating per node entry or per record), so N goroutines
// search the same Index
// simultaneously with candidate sets and per-query Result.IO identical to
// serial execution — a search pins one snapshot, whose tree and store no
// writer changes (a mutable index publishes each commit as a new epoch),
// the buffer pool and the decoded-object LRU are sharded, and every counter
// a search reports is goroutine-local.
package diskindex

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"spatialdom/internal/core"
	"spatialdom/internal/diskrtree"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/faults"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

const superMagic = "SDIX"

// Result and IOStats are the engine's types; a disk search returns the
// same Result shape as the in-memory index, with the IO field populated.
type (
	Result  = core.Result
	IOStats = core.IOStats
)

// Index is a disk-resident NNC index handle. It implements core.Backend.
// All search entry points are safe for concurrent use — there is no
// internal serialization; see the package comment for the sharded design.
type Index struct {
	pool  *pager.Pool
	super pager.PageID
	store *diskstore.Store // the writer's handle; reads go through snap's clone
	tree  *diskrtree.Tree

	// objCache holds decoded objects keyed by record pointer, bounded by a
	// sharded LRU over DefaultObjCacheCap entries (SetObjCacheCap to
	// tune). The pointer is swapped atomically on reset/re-cap so
	// in-flight searches keep a consistent cache instance; fetches go
	// through the buffer pool and are counted there.
	objCache atomic.Pointer[objLRU]

	// cacheHits and cacheEvictions are the cumulative decoded-object cache
	// counters, owned here so they survive cache swaps.
	cacheHits, cacheEvictions atomic.Int64

	// snap is the published snapshot every read goes through, set at
	// construction. Searches pin it (pinned); the single writer of a
	// mutable index swaps it at commit (see mutable.go); a read-only index
	// keeps its first one for life.
	snap    atomic.Pointer[snapshot]
	writeMu sync.Mutex
	mut     *mutState
}

// snapshot is one published, immutable view of the index: the tree root
// and geometry, and a store clone whose directory the writer will never
// mutate in place.
type snapshot struct {
	epoch  uint64
	root   pager.PageID
	height int
	size   int
	store  *diskstore.Store
	refs   atomic.Int64
}

var _ core.Backend = (*Index)(nil)

// ErrBadSuper is returned by Open when the super page is not an index.
var ErrBadSuper = errors.New("diskindex: bad super page")

// ErrNoObjects is returned by Build on an empty object set: an index needs
// at least one object to define its R-tree root.
var ErrNoObjects = errors.New("diskindex: no objects")

// SuperPageID is the fixed page a Build's super block lands on: the first
// page allocated after the file header.
const SuperPageID = pager.PageID(1)

// Build writes the objects and their R-tree into the pool's file and
// returns the index. The first page Build allocates is the super page;
// pass its id (SuperPage) to Open to reattach. Build itself is
// single-goroutine; only the returned Index is concurrency-safe.
//
//nnc:allow ctx-flow: Build is an offline bulk-load, not a query; nothing upstream has a ctx to thread
func Build(pool *pager.Pool, objs []*uncertain.Object) (*Index, error) {
	if len(objs) == 0 {
		return nil, ErrNoObjects
	}
	return create(pool, objs[0].Dim(), objs)
}

// create is the one sequence that writes a new file, a bulk build's and an
// empty mutable file's alike: through the build TxPager, the super page,
// the store and its records, the tree over them, both metas and the super
// block, then a flush.
//
// The records go into the heap in tree order: the STR order BulkLoad tiles
// the leaves by, at the tree's leaf capacity, so the objects of one leaf
// sit side by side on as few pages as their bytes need. entries[i] stays
// object i's, so BulkLoad tiles the same leaves as over input order; only
// the record pointers move.
func create(pool *pager.Pool, dim int, objs []*uncertain.Object) (*Index, error) {
	tx := pager.NewDirect(pool)
	super, _, err := tx.Alloc(pager.PageSuper)
	if err != nil {
		return nil, err
	}
	store, err := diskstore.Create(pool, tx)
	if err != nil {
		return nil, err
	}
	rects := make([]geom.Rect, len(objs))
	for i, o := range objs {
		rects[i] = o.MBR()
	}
	entries := make([]rtree.Entry, len(objs))
	for _, i := range rtree.STROrder(rects, rtree.DefaultFanout(tx.PageSize(), dim)) {
		ptr, err := store.AppendTx(tx, objs[i])
		if err != nil {
			return nil, err
		}
		entries[i] = rtree.Entry{Rect: rects[i], ID: int64(ptr)}
	}
	tree, err := diskrtree.Create(pool, tx, dim, entries)
	if err != nil {
		return nil, err
	}
	if err := store.WriteMetaTx(tx); err != nil {
		return nil, err
	}
	if err := tree.WriteMetaTx(tx); err != nil {
		return nil, err
	}
	buf, err := tx.Stage(super, pager.PageSuper)
	if err != nil {
		return nil, err
	}
	sb := SuperBlock{StoreMeta: store.Meta(), TreeMeta: tree.Meta()}
	EncodeSuper(buf, sb)
	if err := tx.Flush(); err != nil {
		return nil, err
	}
	return newIndex(pool, super, store, tree, sb), nil
}

// Open reattaches to an index previously written in the pool's file.
//
//nnc:allow ctx-flow: Open reads a few metadata pages at startup; it is not on the query path
func Open(pool *pager.Pool, super pager.PageID) (*Index, error) {
	ix, _, err := attach(pool, super)
	return ix, err
}

// attach is the one open sequence: super page, then the store and the tree
// it names. The super block comes back with the index because a mutable
// open needs its free list.
func attach(pool *pager.Pool, super pager.PageID) (*Index, SuperBlock, error) {
	buf, err := pool.Get(super)
	if err != nil {
		return nil, SuperBlock{}, err
	}
	sb, err := DecodeSuper(buf)
	pool.Unpin(super)
	if err != nil {
		return nil, sb, err
	}
	store, err := diskstore.Open(pool, sb.StoreMeta)
	if err != nil {
		return nil, sb, err
	}
	tree, err := diskrtree.Open(pool, sb.TreeMeta)
	if err != nil {
		return nil, sb, err
	}
	return newIndex(pool, super, store, tree, sb), sb, nil
}

// walPending reports whether the WAL beside the page file at path scans
// to a valid record: transactions the page file may not hold yet. A
// missing log holds none; bytes a recycled log's older generations left
// are not records.
func walPending(path string) (bool, error) {
	pending, err := wal.Pending(path + ".wal")
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return pending, err
}

// OpenFile opens the index file at path read-only behind a buffer pool of
// the given number of frames; Close releases the file. A file with a
// pending WAL is refused: serving the pages as they are would silently
// answer from the state before the logged transactions.
//
//nnc:allow ctx-flow: OpenFile reads a few metadata pages at startup; it is not on the query path
func OpenFile(path string, frames int) (*Index, error) {
	pending, err := walPending(path)
	if err != nil {
		return nil, err
	}
	if pending {
		return nil, fmt.Errorf("diskindex: %s.wal holds transactions that are not in %s yet: open it mutable (-mutable) or run `nnc checkpoint %s` first",
			path, path, path)
	}
	pf, err := pager.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := Open(pager.NewPool(pf, frames), SuperPageID)
	if err != nil {
		pf.Close()
		return nil, err
	}
	return ix, nil
}

// newIndex publishes the first snapshot: the state sb and the opened
// structures describe.
func newIndex(pool *pager.Pool, super pager.PageID, store *diskstore.Store, tree *diskrtree.Tree, sb SuperBlock) *Index {
	ix := &Index{pool: pool, super: super, store: store, tree: tree}
	//nnc:publish first store before the Index escapes the constructor; no reader exists yet
	ix.objCache.Store(newObjLRU(DefaultObjCacheCap, &ix.cacheHits, &ix.cacheEvictions))
	//nnc:publish first store before the Index escapes the constructor; no reader exists yet
	ix.snap.Store(&snapshot{
		epoch: sb.Epoch, root: tree.Root(), height: tree.Height(),
		size: tree.Len(), store: store.Clone(),
	})
	return ix
}

// SuperPage returns the id to pass to Open.
func (ix *Index) SuperPage() pager.PageID { return ix.super }

// ResetCache drops the decoded-object cache (capacity and cumulative
// hit/evict counters are kept), so the next search re-fetches objects
// through the buffer pool (used by cold-cache measurements). The cache is
// swapped atomically: searches already in flight keep resolving against
// the old instance; searches started afterwards see the empty one.
func (ix *Index) ResetCache() {
	cap := ix.objCache.Load().capacity
	//nnc:publish swap-on-reset: in-flight searches keep the instance they loaded
	ix.objCache.Store(newObjLRU(cap, &ix.cacheHits, &ix.cacheEvictions))
}

// SetObjCacheCap re-bounds the decoded-object LRU. cap <= 0 disables
// caching entirely; the cache is cleared either way. Safe to call while
// searches are in flight: the new cache is swapped in atomically, racing
// searches finish against the instance they started with, and the
// cumulative counters (shared across instances) lose nothing.
func (ix *Index) SetObjCacheCap(n int) {
	//nnc:publish swap-on-rebound: racing searches finish against the old instance
	ix.objCache.Store(newObjLRU(n, &ix.cacheHits, &ix.cacheEvictions))
}

// objCacheLen reports the entries cached right now (test hook).
func (ix *Index) objCacheLen() int { return ix.objCache.Load().len() }

// Len returns the number of indexed (live) objects.
func (ix *Index) Len() int { return ix.snap.Load().size }

// ScanLive visits every live record in stream order. A record is live
// exactly when a leaf of the committed tree points at it, so the walk
// collects the leaves' record pointers, sorts them and reads each record;
// deleted records are never touched. Not safe concurrently with
// Insert/Delete — it is the offline enumeration surface (RewriteFile,
// open-time id indexing).
func (ix *Index) ScanLive(fn func(diskstore.Ptr, *uncertain.Object) error) error {
	snap := ix.snap.Load()
	var ptrs []diskstore.Ptr
	var walk func(page pager.PageID, depth int) error
	walk = func(page pager.PageID, depth int) error {
		if depth > snap.height {
			return fmt.Errorf("diskindex: tree walk below page %d exceeds height %d", page, snap.height)
		}
		n, err := ix.tree.ReadNodeVia(ix.pool, page)
		if err != nil {
			return err
		}
		for _, ref := range n.Refs {
			if n.Leaf {
				ptrs = append(ptrs, diskstore.Ptr(ref))
			} else if err := walk(pager.PageID(ref), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(snap.root, 1); err != nil {
		return err
	}
	slices.Sort(ptrs)
	for _, p := range ptrs {
		o, err := snap.store.Read(p)
		if err != nil {
			return err
		}
		if err := fn(p, o); err != nil {
			return err
		}
	}
	return nil
}

// Dim returns the dimensionality.
func (ix *Index) Dim() int { return ix.tree.Dim() }

// --- core.Backend ------------------------------------------------------------

// view is one snapshot read through one pager.Reader: the only place Root,
// Expand and Resolve are written. A search's session reads
// through its lease and reports the counts kept here; Index's own Backend
// methods read through the shared pool, where the pool's and the cache's
// cumulative counters are the record.
//
// A session's view also lends its reads the session's buffers: the corner
// arena node pages decode into and the buffer records are read through.
// Index's own view has neither, so each node it expands allocates one
// corner slab and each record it reads one buffer.
type view struct {
	tree   *diskrtree.Tree
	snap   *snapshot
	r      pager.Reader
	cache  *objLRU
	arena  *diskrtree.Arena
	recBuf *[]byte

	cacheHits, cacheEvictions int64
}

// Root returns the snapshot's R-tree root page.
func (v *view) Root() (core.NodeRef, error) {
	return core.NodeRef{ID: uint64(v.snap.root)}, nil
}

// Expand reads the node page (one counted page access) and visits its
// children: record pointers for a leaf, child pages otherwise. Their
// rectangles are decoded in place into a slab of the view's arena (a
// fresh one without it), which nothing reuses until the search returns.
//
//nnc:hotpath
func (v *view) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	return v.tree.VisitNodeVia(v.r, pager.PageID(n.ID), v.arena.Corners, func(leaf bool, r geom.Rect, ref int64) {
		if leaf {
			visit(core.BackendEntry{Rect: r, Obj: core.ObjRef{ID: uint64(ref)}})
		} else {
			visit(core.BackendEntry{Rect: r, IsNode: true, Node: core.NodeRef{ID: uint64(ref)}})
		}
	})
}

// Resolve materializes a record pointer into an object, through the
// decoded-object LRU. Loading the object is the paper's "load the local
// R-tree": it happens only when the MBR could not be pruned.
func (v *view) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	if r.Obj != nil {
		return r.Obj, nil
	}
	ptr := diskstore.Ptr(r.ID)
	if o, ok := v.cache.get(ptr); ok {
		v.cacheHits++
		return o, nil
	}
	o, err := v.snap.store.ReadVia(v.r, ptr, v.recBuf)
	if err != nil {
		return nil, err
	}
	v.cacheEvictions += v.cache.put(ptr, o)
	return o, nil
}

// Index itself is a core.Backend over the current snapshot and the shared
// pool — the surface for callers that pass it to core.SearchBackend
// directly. Such use is concurrency-safe, but it pins nothing and per-search
// IO deltas then include other searches' traffic; SearchKCtx goes through a
// per-search session instead and is the entry point that keeps Result.IO
// exact under concurrency.
func (ix *Index) direct() view {
	return view{tree: ix.tree, snap: ix.snap.Load(), r: ix.pool, cache: ix.objCache.Load()}
}

func (ix *Index) Root() (core.NodeRef, error) { v := ix.direct(); return v.Root() }

func (ix *Index) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	v := ix.direct()
	return v.Expand(n, visit)
}

func (ix *Index) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	v := ix.direct()
	return v.Resolve(r)
}

// AccessStats combines the buffer pool's cumulative counters with the
// decoded-object cache's; the engine turns them into per-search deltas.
func (ix *Index) AccessStats() core.IOStats {
	hits, misses, reads, writes := ix.pool.Stats()
	return core.IOStats{
		Hits: hits, Misses: misses, Reads: reads, Writes: writes,
		CacheHits:      ix.cacheHits.Load(),
		CacheEvictions: ix.cacheEvictions.Load(),
	}
}

// session is the per-search core.Backend: a view of the search's pinned
// snapshot through a pager.Lease, so the engine's AccessStats delta is
// exactly this search's I/O no matter how many other searches run
// concurrently. The decoded-object cache instance is fixed at session
// creation, keeping one search internally consistent across a concurrent
// ResetCache/SetObjCacheCap swap. Sessions are pooled with their corner
// arena and record buffer, which is what keeps a warm search from
// allocating per node entry or per record.
type session struct {
	view
	lease  *pager.Lease
	arena  diskrtree.Arena
	recBuf []byte
}

var _ core.Backend = (*session)(nil)

var sessionPool = sync.Pool{New: func() any { return new(session) }}

// newSession takes a pooled session and points it at snap through lease.
func (ix *Index) newSession(snap *snapshot, lease *pager.Lease) *session {
	s := sessionPool.Get().(*session)
	s.view = view{
		tree: ix.tree, snap: snap, r: lease, cache: ix.objCache.Load(),
		arena: &s.arena, recBuf: &s.recBuf,
	}
	s.lease = lease
	return s
}

// release returns the session to the pool once its search has returned:
// the rectangles it handed out are dead, so the arena starts over.
func (s *session) release() {
	s.arena.Reset()
	s.view = view{}
	s.lease = nil
	sessionPool.Put(s)
}

func (s *session) AccessStats() core.IOStats {
	return core.IOStats{
		Hits:           s.lease.Hits,
		Misses:         s.lease.Misses,
		Reads:          s.lease.Reads,
		CacheHits:      s.cacheHits,
		CacheEvictions: s.cacheEvictions,
	}
}

// --- search entry points -----------------------------------------------------

// SearchKCtx runs the shared engine against the disk structures with full
// options: context cancellation, progressive OnCandidate, metrics.
// Result.IO carries the per-query page and cache counters — exact even
// under concurrency, because the search runs over a private session whose
// counters no other goroutine touches. Any number of SearchKCtx calls may
// run in parallel on one Index.
func (ix *Index) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("diskindex: k=%d must be >= 1", k)
	}
	// Pinning the snapshot freezes this search's view: the root, the store
	// geometry, and — via the epoch refcount — every page reachable from
	// them, which a writer will not recycle until the pin drops.
	var res *Result
	var err error
	ix.pinned(func(snap *snapshot) {
		s := ix.newSession(snap, ix.pool.NewLeaseCtx(ctx))
		res, err = core.SearchBackend(ctx, s, q, op, k, opts)
		s.release()
	})
	return res, err
}

// String describes the index.
func (ix *Index) String() string {
	s := ix.snap.Load()
	return fmt.Sprintf("DiskIndex(%d objects, dim %d, tree height %d, %d pages)",
		s.size, ix.Dim(), s.height, ix.pool.File().Len())
}

// --- health & maintenance ----------------------------------------------------

// FaultStats returns the cumulative fault counters of the underlying page
// file (checksum failures, torn pages, retries, recoveries). A non-zero
// QuarantinedPages means searches may return flagged partial results for
// queries whose traversal touches those pages.
func (ix *Index) FaultStats() faults.Stats { return ix.pool.FaultStats() }

// Healthy is a cheap readiness probe: it re-reads and re-validates the
// super page through the buffer pool. A nil return means the index can
// serve queries (possibly degraded — FaultStats().QuarantinedPages says).
// On a mutable index it takes the write mutex: the super page is updated
// in place at commit, so this read must not race the cache install.
func (ix *Index) Healthy(ctx context.Context) error {
	if ix.mut != nil {
		ix.writeMu.Lock()
		defer ix.writeMu.Unlock()
	}
	buf, err := ix.pool.GetCtx(ctx, ix.super)
	if err != nil {
		return err
	}
	_, perr := DecodeSuper(buf)
	ix.pool.Unpin(ix.super)
	return perr
}

// RewriteFile rebuilds the index file at path via a temp file in the same
// directory and an atomic rename. The rebuild is logical — every live record
// is decoded from the old file and re-appended through a fresh Build — so it
// compacts: dead records, leaked free pages and unreferenced pages of older
// layouts are left behind, and records that inserts appended at the heap's
// tail move back beside the rest of their leaf. frames sizes the buffer
// pools used on both sides (<= 0 picks a default).
//
//nnc:allow ctx-flow: RewriteFile is an offline maintenance pass (nnc rewrite), not a query; nothing upstream has a ctx to thread
func RewriteFile(path string, frames int) error {
	if frames <= 0 {
		frames = 256
	}
	pf, err := pager.Open(path)
	if err != nil {
		return err
	}
	// Read side only: replay syncs what it writes, and the rename below
	// replaces the file.
	defer pf.Close()
	// A pending WAL means a mutable session committed transactions the page
	// file may not hold yet (or died mid-write); replay it so the rewrite
	// reads the latest committed state.
	pending, err := walPending(path)
	if err != nil {
		return err
	}
	if pending {
		wlog, _, err := replayWAL(pf, path, nil)
		if err != nil {
			return err
		}
		if err := wlog.Close(); err != nil {
			return err
		}
	}
	ix, err := Open(pager.NewPool(pf, frames), SuperPageID)
	if err != nil {
		return err
	}
	objs := make([]*uncertain.Object, 0, ix.Len())
	err = ix.ScanLive(func(_ diskstore.Ptr, o *uncertain.Object) error {
		objs = append(objs, o)
		return nil
	})
	if err != nil {
		return fmt.Errorf("diskindex: rewrite %s: %w", path, err)
	}

	tmp := path + ".rewrite"
	nf, err := pager.Create(tmp, pf.PhysicalPageSize())
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := Build(pager.NewPool(nf, frames), objs); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The old WAL describes pages of the replaced file; drop it.
	if err := os.Remove(path + ".wal"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// replayWAL is the one recovery sequence: open the log beside the page file
// at path and replay its committed transactions into pf. The log comes back
// open and reset — a mutable open keeps appending to it, the offline passes
// (RewriteFile, FsckStruct) close it. wrap is wal.Open's crash-injection
// hook.
func replayWAL(pf *pager.PageFile, path string, wrap func(*os.File) wal.File) (*wal.Log, *wal.RecoveryStats, error) {
	wlog, err := wal.Open(path+".wal", pf.PageSize(), wrap)
	if err != nil {
		return nil, nil, err
	}
	rec, err := wal.Recover(wlog, pf)
	if err != nil {
		wlog.Close()
		return nil, nil, fmt.Errorf("diskindex: wal recovery: %w", err)
	}
	return wlog, rec, nil
}
