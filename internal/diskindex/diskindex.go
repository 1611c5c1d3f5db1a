// Package diskindex is the disk-resident form of the NN-candidate search:
// object records in a page-file heap (diskstore), object MBRs in a
// disk-resident global R-tree (diskrtree), with every page access counted
// through a buffer pool — the setting the paper's efficiency experiments
// model with 4096-byte pages.
//
// The search itself is not implemented here: searches run through the
// shared engine (core.SearchBackend), so the disk path gets tie-batching,
// k-skyband, filters, metrics, context cancellation and Limit identically
// to the in-memory index. Per the paper's memory model, an object whose
// MBR survives pruning is loaded into main memory in full ("we load the
// whole local R-tree into the main memory if it could not be pruned based
// on its MBR"); decoded objects are kept in a bounded LRU so long-running
// servers don't grow without limit.
//
// Concurrency: an Index holds no global lock. SearchKCtx materializes a
// per-search session (a pager.Lease over the sharded buffer pool plus
// local cache counters), so N goroutines search the same Index
// simultaneously with candidate sets and per-query Result.IO identical to
// serial execution — the tree and store are immutable after Build, the
// buffer pool and the decoded-object LRU are sharded, and every counter a
// search reports is goroutine-local.
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
	store *diskstore.Store
	tree  *diskrtree.Tree

	// denseSpan is max(object ID)+1, persisted in the super page at Build
	// time when every ID is non-negative; 0 means unknown (including files
	// written before the field existed — the bytes were zeroed), in which
	// case the checker keeps its map-backed cache.
	denseSpan int

	// objCache holds decoded objects keyed by record pointer, bounded by a
	// sharded LRU over DefaultObjCacheCap entries (SetObjCacheCap to
	// tune). The pointer is swapped atomically on reset/re-cap so
	// in-flight searches keep a consistent cache instance; fetches go
	// through the buffer pool and are counted there.
	objCache atomic.Pointer[objLRU]

	// cacheHits and cacheEvictions are the cumulative decoded-object cache
	// counters, owned here so they survive cache swaps.
	cacheHits, cacheEvictions atomic.Int64

	// snap is the current published snapshot of a mutable index; nil on a
	// read-only one. Searches pin it via acquire/release; the single
	// writer swaps it at commit (see mutable.go).
	snap    atomic.Pointer[snapshot]
	writeMu sync.Mutex
	mut     *mutState
}

// snapshot is one published, immutable view of a mutable index: the tree
// root and geometry, the id span, and a store clone whose directory the
// writer will never mutate in place.
type snapshot struct {
	epoch  uint64
	root   pager.PageID
	height int
	size   int
	span   int
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

// ParseSuper validates and decodes a super-page image into the two
// metadata page ids and the dense object-ID span. Malformed input yields
// an error wrapping ErrBadSuper — never a panic. It delegates to
// DecodeSuper (the full v2 decoder, the single source of super-page
// decode truth) and remains the surface FuzzSuperDecode exercises.
func ParseSuper(buf []byte) (storeMeta, treeMeta pager.PageID, span int, err error) {
	sb, err := DecodeSuper(buf)
	if err != nil {
		return 0, 0, 0, err
	}
	return sb.StoreMeta, sb.TreeMeta, sb.Span, nil
}

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
	super, _, err := pool.Allocate(pager.PageSuper)
	if err != nil {
		return nil, err
	}
	pool.Unpin(super)

	store, err := diskstore.Create(pool)
	if err != nil {
		return nil, err
	}
	entries := make([]rtree.Entry, len(objs))
	span := 0
	for i, o := range objs {
		ptr, err := store.Append(o)
		if err != nil {
			return nil, err
		}
		entries[i] = rtree.Entry{Rect: o.MBR(), ID: int64(ptr)}
		switch {
		case o.ID() < 0:
			span = -1
		case span >= 0 && o.ID() >= span:
			span = o.ID() + 1
		}
	}
	if span < 0 {
		span = 0
	}
	tree, err := diskrtree.Build(pool, entries)
	if err != nil {
		return nil, err
	}

	buf, err := pool.Get(super)
	if err != nil {
		return nil, err
	}
	EncodeSuper(buf, SuperBlock{StoreMeta: store.Meta(), TreeMeta: tree.Meta(), Span: span})
	pool.MarkDirty(super)
	pool.Unpin(super)
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return newIndex(pool, super, store, tree, span), nil
}

// Open reattaches to an index previously Built in the pool's file.
//
//nnc:allow ctx-flow: Open reads two metadata pages at startup; it is not on the query path
func Open(pool *pager.Pool, super pager.PageID) (*Index, error) {
	buf, err := pool.Get(super)
	if err != nil {
		return nil, err
	}
	sb, perr := DecodeSuper(buf)
	pool.Unpin(super)
	if perr != nil {
		return nil, perr
	}
	store, err := diskstore.Open(pool, sb.StoreMeta)
	if err != nil {
		return nil, err
	}
	tree, err := diskrtree.Open(pool, sb.TreeMeta)
	if err != nil {
		return nil, err
	}
	return newIndex(pool, super, store, tree, sb.Span), nil
}

// OpenFile opens the index file at path read-only behind a buffer pool of
// the given number of frames; the caller closes the returned page file.
// A file whose WAL (path + ".wal") holds anything past its header is
// refused: a mutable session committed transactions the page file may not
// hold yet, and serving the pages as they are would silently answer from
// the state before them.
//
//nnc:allow ctx-flow: OpenFile reads two metadata pages at startup; it is not on the query path
func OpenFile(path string, frames int) (*Index, *pager.PageFile, error) {
	walFile := path + ".wal"
	if st, err := os.Stat(walFile); err == nil && st.Size() > wal.HeaderSize {
		return nil, nil, fmt.Errorf("diskindex: %s holds transactions that are not in %s yet: open it mutable (-mutable) or run `nnc checkpoint %s` first",
			walFile, path, path)
	}
	pf, err := pager.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ix, err := Open(pager.NewPool(pf, frames), SuperPageID)
	if err != nil {
		pf.Close()
		return nil, nil, err
	}
	return ix, pf, nil
}

func newIndex(pool *pager.Pool, super pager.PageID, store *diskstore.Store, tree *diskrtree.Tree, span int) *Index {
	ix := &Index{pool: pool, super: super, store: store, tree: tree, denseSpan: span}
	//nnc:publish first store before the Index escapes the constructor; no reader exists yet
	ix.objCache.Store(newObjLRU(DefaultObjCacheCap, &ix.cacheHits, &ix.cacheEvictions))
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
func (ix *Index) Len() int {
	if s := ix.snap.Load(); s != nil {
		return s.size
	}
	return ix.tree.Len()
}

// curStore returns the store view current reads should use: the latest
// snapshot's clone on a mutable index, the shared store otherwise.
func (ix *Index) curStore() *diskstore.Store {
	if s := ix.snap.Load(); s != nil {
		return s.store
	}
	return ix.store
}

// ScanLive visits every live record in stream order. A record is live
// exactly when a leaf of the committed tree points at it, so the walk
// collects the leaves' record pointers, sorts them and reads each record;
// deleted records are never touched. Not safe concurrently with
// Insert/Delete — it is the offline enumeration surface (RewriteFile,
// open-time id indexing).
//
//nnc:allow ctx-flow: ScanLive is an offline full-file enumeration (rewrite/open), not a query; nothing upstream has a ctx to thread
func (ix *Index) ScanLive(fn func(diskstore.Ptr, *uncertain.Object) error) error {
	root, height, store := ix.tree.Root(), ix.tree.Height(), ix.store
	if s := ix.snap.Load(); s != nil {
		root, height, store = s.root, s.height, s.store
	}
	var ptrs []diskstore.Ptr
	var walk func(page pager.PageID, depth int) error
	walk = func(page pager.PageID, depth int) error {
		if depth > height {
			return fmt.Errorf("diskindex: tree walk below page %d exceeds height %d", page, height)
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
	if err := walk(root, 1); err != nil {
		return err
	}
	slices.Sort(ptrs)
	for _, p := range ptrs {
		o, err := store.Read(p)
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

// Index itself remains a core.Backend reading through the shared pool
// with cumulative counters — the compatibility surface for callers that
// pass it to core.SearchBackend directly. Such direct use is
// concurrency-safe, but per-search IO deltas then include other searches'
// traffic; SearchKCtx goes through a per-search session instead and is
// the entry point that keeps Result.IO exact under concurrency.

// Root returns the R-tree root page (of the current snapshot, on a
// mutable index).
func (ix *Index) Root() (core.NodeRef, error) {
	if s := ix.snap.Load(); s != nil {
		return core.NodeRef{ID: uint64(s.root)}, nil
	}
	return core.NodeRef{ID: uint64(ix.tree.Root())}, nil
}

// Expand reads the node page through the buffer pool (one counted page
// access) and visits its children: record pointers for a leaf, child pages
// otherwise.
func (ix *Index) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	return ix.expandVia(ix.pool, n, visit)
}

// expandVia reads the node page through r — the shared pool, or one
// search's lease so the access is attributed to that search alone.
func (ix *Index) expandVia(r pager.Reader, n core.NodeRef, visit func(core.BackendEntry)) error {
	node, err := ix.tree.ReadNodeVia(r, pager.PageID(n.ID))
	if err != nil {
		return err
	}
	for i, rect := range node.Rects {
		if node.Leaf {
			visit(core.BackendEntry{Rect: rect, Obj: core.ObjRef{ID: uint64(node.Refs[i])}})
		} else {
			visit(core.BackendEntry{Rect: rect, IsNode: true, Node: core.NodeRef{ID: uint64(node.Refs[i])}})
		}
	}
	return nil
}

// Resolve materializes a record pointer into an object, through the
// decoded-object LRU. Loading the object is the paper's "load the local
// R-tree": it happens only when the MBR could not be pruned.
//
//nnc:allow ctx-flow: Resolve implements core.Backend, which is ctx-free by design; the engine checks ctx.Err() around every Resolve call
func (ix *Index) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	if r.Obj != nil {
		return r.Obj, nil
	}
	ptr := diskstore.Ptr(r.ID)
	cache := ix.objCache.Load()
	if o, ok := cache.get(ptr); ok {
		return o, nil
	}
	o, err := ix.curStore().Read(ptr)
	if err != nil {
		return nil, err
	}
	cache.put(ptr, o)
	return o, nil
}

// DenseIDSpan reports the persisted object-ID span (core.DenseIDSpanner).
func (ix *Index) DenseIDSpan() int {
	if s := ix.snap.Load(); s != nil {
		return s.span
	}
	return ix.denseSpan
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

// --- per-search session ------------------------------------------------------

// session is the per-search core.Backend: it reads pages through a
// pager.Lease and tallies object-cache behavior locally, so the engine's
// AccessStats delta is exactly this search's I/O no matter how many other
// searches run concurrently. The decoded-object cache instance is pinned
// at session creation, keeping one search internally consistent across a
// concurrent ResetCache/SetObjCacheCap swap.
type session struct {
	ix    *Index
	snap  *snapshot // pinned view of a mutable index; nil when read-only
	lease *pager.Lease
	cache *objLRU

	cacheHits, cacheEvictions int64
}

var (
	_ core.Backend        = (*session)(nil)
	_ core.DenseIDSpanner = (*session)(nil)
	_ core.DenseIDSpanner = (*Index)(nil)
)

// DenseIDSpan forwards the pinned snapshot's span to the engine.
func (s *session) DenseIDSpan() int {
	if s.snap != nil {
		return s.snap.span
	}
	return s.ix.denseSpan
}

// store returns the store view this search reads records through.
func (s *session) store() *diskstore.Store {
	if s.snap != nil {
		return s.snap.store
	}
	return s.ix.store
}

func (s *session) Root() (core.NodeRef, error) {
	if s.snap != nil {
		return core.NodeRef{ID: uint64(s.snap.root)}, nil
	}
	return core.NodeRef{ID: uint64(s.ix.tree.Root())}, nil
}

func (s *session) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	return s.ix.expandVia(s.lease, n, visit)
}

func (s *session) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	if r.Obj != nil {
		return r.Obj, nil
	}
	ptr := diskstore.Ptr(r.ID)
	if o, ok := s.cache.get(ptr); ok {
		s.cacheHits++
		return o, nil
	}
	o, err := s.store().ReadVia(s.lease, ptr)
	if err != nil {
		return nil, err
	}
	s.cacheEvictions += s.cache.put(ptr, o)
	return o, nil
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
// options: context cancellation, Limit, progressive OnCandidate, metrics.
// Result.IO carries the per-query page and cache counters — exact even
// under concurrency, because the search runs over a private session whose
// counters no other goroutine touches. Any number of SearchKCtx calls may
// run in parallel on one Index.
func (ix *Index) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("diskindex: k=%d must be >= 1", k)
	}
	// Pinning the snapshot (no-op on a read-only index) freezes this
	// search's view: the root, the store geometry, and — via the epoch
	// refcount — every page reachable from them, which the writer will not
	// recycle until the pin drops. core.SearchParallel inherits this per
	// query because it fans out through SearchKCtx.
	var res *Result
	var err error
	ix.pinned(func(snap *snapshot) {
		s := &session{ix: ix, snap: snap, lease: ix.pool.NewLeaseCtx(ctx), cache: ix.objCache.Load()}
		res, err = core.SearchBackend(ctx, s, q, op, k, opts)
	})
	return res, err
}

// String describes the index.
func (ix *Index) String() string {
	height := ix.tree.Height()
	if s := ix.snap.Load(); s != nil {
		height = s.height
	}
	return fmt.Sprintf("DiskIndex(%d objects, dim %d, tree height %d, %d pages)",
		ix.Len(), ix.Dim(), height, ix.pool.File().Len())
}

// --- health & maintenance ----------------------------------------------------

// Quarantined reports how many pages the pager has quarantined as
// unreadable. Non-zero means searches may return flagged partial results
// for queries whose traversal touches those pages.
func (ix *Index) Quarantined() int64 { return ix.pool.File().QuarantineCount() }

// FaultStats returns the cumulative fault counters of the underlying page
// file (checksum failures, torn pages, retries, recoveries).
func (ix *Index) FaultStats() faults.Stats { return ix.pool.FaultStats() }

// Healthy is a cheap readiness probe: it re-reads and re-validates the
// super page through the buffer pool. A nil return means the index can
// serve queries (possibly degraded — check Quarantined for that signal).
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

// RewriteFile rebuilds the index file at path into the current on-disk
// format via a temp file in the same directory and an atomic rename. The
// rebuild is logical — every record is decoded from the old file (legacy v0
// or current) and re-appended through a fresh Build — so it both upgrades
// pre-checksum files and compacts around any format change, rather than
// assuming payload geometry is preserved. frames sizes the buffer pools
// used on both sides (<= 0 picks a default).
//
//nnc:allow ctx-flow: RewriteFile is an offline maintenance pass (nnc rewrite), not a query; nothing upstream has a ctx to thread
func RewriteFile(path string, frames int) error {
	if frames <= 0 {
		frames = 256
	}
	// A WAL beside the file means a mutable session committed transactions
	// the page file may not hold yet (or died mid-write); recover first so
	// the rewrite reads the latest committed state.
	walFile := path + ".wal"
	if st, err := os.Stat(walFile); err == nil && st.Size() > wal.HeaderSize {
		if err := recoverForRewrite(path, walFile); err != nil {
			return err
		}
	}
	ix, pf, err := OpenFile(path, frames)
	if err != nil {
		return err
	}
	physPageSize := pf.PhysicalPageSize()
	objs := make([]*uncertain.Object, 0, ix.Len())
	serr := ix.ScanLive(func(_ diskstore.Ptr, o *uncertain.Object) error {
		objs = append(objs, o)
		return nil
	})
	if cerr := pf.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("diskindex: rewrite %s: %w", path, serr)
	}

	tmp := path + ".rewrite"
	nf, err := pager.Create(tmp, physPageSize)
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
	if err := os.Remove(walFile); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// recoverForRewrite replays a leftover WAL into the page file and resets
// it, so RewriteFile (and fsck's private copy) see the committed state.
func recoverForRewrite(path, walFile string) error {
	pf, err := pager.Open(path)
	if err != nil {
		return err
	}
	wlog, err := wal.Open(walFile, pf.PageSize(), nil)
	if err != nil {
		pf.Close()
		return err
	}
	_, rerr := wal.Recover(wlog, pf)
	if cerr := wlog.Close(); rerr == nil {
		rerr = cerr
	}
	if cerr := pf.Close(); rerr == nil {
		rerr = cerr
	}
	return rerr
}
