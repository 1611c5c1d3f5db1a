package pager

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"spatialdom/internal/faults"
)

// maxPoolShards bounds the number of buffer-pool shards; the actual count
// is scaled down so every shard keeps at least minFramesPerShard frames
// (small pools degenerate gracefully to a single shard).
const (
	maxPoolShards     = 16
	minFramesPerShard = 4
)

// Pool is a sharded LRU buffer pool over a PageFile, safe for concurrent
// use by any number of goroutines: frames are partitioned by page id into
// shards with independent locks, so concurrent searches only contend when
// they touch pages of the same shard at the same instant. Get returns a
// cached frame when present; otherwise the shard's least-recently-used
// unpinned frame is evicted (written back if dirty) and reused. Pinned
// frames are never evicted.
//
// When every frame of a shard is pinned simultaneously, Get and Allocate
// do not fail: the shard temporarily overflows its capacity with an extra
// frame and shrinks back to capacity as pins are released and later
// requests evict the surplus. The capacity is therefore a steady-state
// bound — transiently the pool holds at most capacity + (number of
// concurrently pinned pages) frames.
type Pool struct {
	file   *PageFile
	shards []poolShard

	// hits and misses count logical page requests served from / missing
	// the cache; physical transfers are counted on the PageFile.
	hits, misses atomic.Int64
	// frameCopies counts the Puts that found the page pinned and copied.
	frameCopies atomic.Int64
}

type poolShard struct {
	mu     sync.Mutex
	cap    int
	frames map[PageID]*frame
	lru    *list.List // front = most recently used
}

type frame struct {
	id    PageID
	buf   []byte
	ptype PageType // trailer tag, preserved across write-back
	dirty bool
	pins  int
	elem  *list.Element

	// loading is non-nil while the frame's page is in flight from disk:
	// the goroutine that installed the frame reads the page outside the
	// shard lock and closes the channel when buf is ready (loadErr set
	// first, so the close publishes it). Concurrent getters of the same
	// page wait on the channel instead of issuing a duplicate read.
	loading chan struct{}
	loadErr error
}

// NewPool wraps file with a buffer pool of capacity pages, sharded for
// concurrent access.
func NewPool(file *PageFile, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	nshards := capacity / minFramesPerShard
	if nshards > maxPoolShards {
		nshards = maxPoolShards
	}
	if nshards < 1 {
		nshards = 1
	}
	p := &Pool{file: file, shards: make([]poolShard, nshards)}
	base, rem := capacity/nshards, capacity%nshards
	for i := range p.shards {
		sh := &p.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.frames = make(map[PageID]*frame, sh.cap)
		sh.lru = list.New()
	}
	return p
}

// File returns the underlying page file.
func (p *Pool) File() *PageFile { return p.file }

func (p *Pool) shardFor(id PageID) *poolShard {
	return &p.shards[uint32(id)%uint32(len(p.shards))]
}

// Get pins page id and returns its buffer. The caller must Unpin it and
// must not write the buffer: pages change only through Put (a committed
// transaction's images) and Direct (a build's own frames). Safe for
// concurrent use; per-call hit/miss attribution is available through a
// Lease.
func (p *Pool) Get(id PageID) ([]byte, error) { return p.GetCtx(context.Background(), id) }

// GetCtx is Get with a cancellation context: a canceled ctx aborts both
// the physical read's retry backoff and any wait for another goroutine's
// in-flight load of the same page.
func (p *Pool) GetCtx(ctx context.Context, id PageID) ([]byte, error) {
	buf, _, err := p.get(ctx, id)
	return buf, err
}

// get is Get plus the hit/miss outcome of this particular call, for
// goroutine-local accounting by leases. The shard lock is never held
// across the physical read: a miss installs a loading frame, releases the
// lock for the transfer, and republishes the result, so concurrent
// searches on other pages of the shard proceed during the disk wait while
// concurrent getters of the same page coalesce onto one read.
//
//nnc:coldpath buffer-pool boundary: frames are allocated once, up to the pool's capacity, and reused by eviction; below this the only other allocations are the physical-read miss path and error formatting
func (p *Pool) get(ctx context.Context, id PageID) (buf []byte, hit bool, err error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if fr, ok := sh.frames[id]; ok {
		p.hits.Add(1)
		fr.pins++
		sh.lru.MoveToFront(fr.elem)
		// Taken under the lock: a Put may give the frame another buffer
		// while this pin lasts, but never writes the one pinned here.
		buf, ch := fr.buf, fr.loading
		sh.mu.Unlock()
		if ch == nil {
			return buf, true, nil
		}
		// Page in flight: wait for the loader — but never past our own
		// context. A canceled waiter releases its pin and leaves; the load
		// itself continues for the remaining waiters.
		select {
		case <-ch:
		case <-ctx.Done():
			sh.mu.Lock()
			fr.pins--
			sh.mu.Unlock()
			return nil, false, ctx.Err()
		}
		if lerr := fr.loadErr; lerr != nil {
			sh.mu.Lock()
			fr.pins--
			sh.mu.Unlock()
			return nil, false, lerr
		}
		return buf, true, nil
	}
	p.misses.Add(1)
	fr, err := sh.victim(p.file)
	if err != nil {
		sh.mu.Unlock()
		return nil, false, err
	}
	fr.id = id
	fr.ptype = PageUnknown
	fr.dirty = false
	fr.pins = 1
	fr.loading = make(chan struct{})
	fr.loadErr = nil
	sh.frames[id] = fr
	buf, ch := fr.buf, fr.loading
	sh.mu.Unlock()

	ptype, rerr := p.file.ReadPageCtx(ctx, id, buf)

	sh.mu.Lock()
	fr.ptype = ptype
	fr.loadErr = rerr
	fr.loading = nil
	close(ch)
	if rerr != nil {
		// Withdraw the failed frame so later gets retry the read; waiters
		// still hold pins and release them on their own error path, which
		// keeps the frame from being victimized until they have seen the
		// error.
		delete(sh.frames, id)
		fr.id = InvalidPage
		fr.pins--
		sh.mu.Unlock()
		return nil, false, rerr
	}
	sh.mu.Unlock()
	return buf, false, nil
}

// Allocate creates a new zeroed page of the given type, pins it and
// returns its id+buffer.
//
//nnc:coldpath buffer-pool boundary: frames are allocated once, up to the pool's capacity, and reused by eviction; below this the only other allocations are the physical-read miss path and error formatting
func (p *Pool) Allocate(t PageType) (PageID, []byte, error) {
	id, err := p.file.Allocate(t)
	if err != nil {
		return InvalidPage, nil, err
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, err := sh.victim(p.file)
	if err != nil {
		return InvalidPage, nil, err
	}
	for i := range fr.buf {
		fr.buf[i] = 0
	}
	fr.id = id
	fr.ptype = t
	fr.dirty = true // the zero page must eventually hit the disk image
	fr.pins = 1
	sh.frames[id] = fr
	return id, fr.buf, nil
}

// victim returns a free frame not present in the shard's map: a fresh one
// while below capacity, else the LRU unpinned frame (written back when
// dirty). While at it, any overflow frames beyond the shard capacity are
// evicted and discarded, shrinking a shard that previously overflowed.
// When every frame is pinned the shard overflows with a fresh frame
// instead of failing — the caller is mid-search and holds pins the
// eviction scan cannot reclaim.
func (sh *poolShard) victim(file *PageFile) (*frame, error) {
	for sh.lru.Len() >= sh.cap {
		var e *list.Element
		for e = sh.lru.Back(); e != nil; e = e.Prev() {
			if e.Value.(*frame).pins == 0 {
				break
			}
		}
		if e == nil {
			break // every frame pinned: overflow below
		}
		fr := e.Value.(*frame)
		if fr.dirty {
			if err := file.WritePage(fr.id, fr.buf, fr.ptype); err != nil {
				return nil, err
			}
			fr.dirty = false
		}
		delete(sh.frames, fr.id)
		if sh.lru.Len() == sh.cap {
			// The frame that brings us to capacity-1 is reused in place.
			sh.lru.MoveToFront(e)
			return fr, nil
		}
		// Surplus frame from an earlier overflow: drop it entirely.
		sh.lru.Remove(e)
	}
	fr := &frame{buf: make([]byte, file.PageSize())}
	fr.elem = sh.lru.PushFront(fr)
	return fr, nil
}

// Put installs buf as the cached content of page id, marking the frame
// dirty without touching the disk — the commit-apply path of a write
// transaction: the WAL already holds the image durably, so the page file
// can receive it lazily via eviction write-back or Flush.
//
// Put takes buf by ownership: buf becomes the page's frame, and Put
// returns the buffer the frame held before, which is the caller's from
// then on. No reader can hold that buffer, because a reader uses a frame's
// buffer only while it holds a pin, and Put swaps only an unpinned frame,
// under the shard lock. When a reader holds the page pinned, Put leaves
// that reader's buffer alone: the frame gets a fresh copy of buf, and buf
// comes back to the caller. Such a fallback is counted (FrameCopies). On
// an error buf comes back too.
//
//nnc:coldpath buffer-pool boundary: frames are allocated once, up to the pool's capacity, and reused by eviction; below this the only other allocations are the physical-read miss path and error formatting
func (p *Pool) Put(id PageID, buf []byte, t PageType) ([]byte, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, ok := sh.frames[id]
	switch {
	case len(buf) != p.file.PageSize():
		return buf, fmt.Errorf("pager: Put(%d) of a %d-byte buffer, page payload %d", id, len(buf), p.file.PageSize())
	case ok && fr.loading != nil:
		// A reader is mid-load of this page. Under the copy-on-write
		// discipline this cannot happen for a page a committed write
		// touches; refuse rather than race the loader's buffer fill.
		return buf, fmt.Errorf("pager: Put(%d) raced an in-flight load", id)
	case ok:
		sh.lru.MoveToFront(fr.elem)
	default:
		var err error
		if fr, err = sh.victim(p.file); err != nil {
			return buf, err
		}
		fr.id = id
		fr.pins = 0
		sh.frames[id] = fr
	}
	fr.ptype = t
	fr.dirty = true
	if fr.pins > 0 {
		p.frameCopies.Add(1)
		fr.buf = append(make([]byte, 0, len(buf)), buf...)
		return buf, nil
	}
	old := fr.buf
	fr.buf = buf
	return old, nil
}

// markDirty flags a pinned page as modified: Direct's write of a frame.
func (p *Pool) markDirty(id PageID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr, ok := sh.frames[id]; ok {
		fr.dirty = true
	}
}

// Unpin releases one pin on the page.
func (p *Pool) Unpin(id PageID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr, ok := sh.frames[id]; ok && fr.pins > 0 {
		fr.pins--
	}
}

// Flush writes every dirty frame back and syncs the file.
func (p *Pool) Flush() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.dirty {
				//nnc:allow lock-balance: Flush is a stop-the-world checkpoint off the query path; the write must stay under the shard lock to serialize against markDirty
				if err := p.file.WritePage(fr.id, fr.buf, fr.ptype); err != nil {
					sh.mu.Unlock()
					return err
				}
				fr.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return p.file.Sync()
}

// Stats returns (hits, misses, physical reads, physical writes).
func (p *Pool) Stats() (hits, misses, reads, writes int64) {
	r, w := p.file.IOCounts()
	return p.hits.Load(), p.misses.Load(), r, w
}

// FrameCopies returns how many Puts found their page pinned by a reader
// and installed a copy instead of the caller's buffer.
func (p *Pool) FrameCopies() int64 { return p.frameCopies.Load() }

// FaultStats returns the underlying file's cumulative fault counters.
func (p *Pool) FaultStats() faults.Stats { return p.file.FaultStats() }

// frameCount returns the total number of resident frames (test hook for
// the overflow-and-shrink behavior).
func (p *Pool) frameCount() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
