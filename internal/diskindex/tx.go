package diskindex

// Tx is the write transaction: the pager.TxPager the R-tree and object
// store mutate through. Every page write is staged in a private buffer;
// until commitTx runs, nothing reaches the WAL, the buffer pool or the
// page file, so aborting a transaction is pure bookkeeping — restore the
// structures' in-memory headers and hand the popped free-list pages back.
//
// The index has one Tx, emptied at the end of every mutation, and its page
// buffers come off a free list on mutState and go back when the
// transaction ends either way (release). A commit moves each page once:
// Pool.Put takes a staged buffer as the page's frame and hands back the
// frame's old buffer, which takes the staged one's place in the Tx, so
// release recycles only buffers the Tx owns. Read copies nothing: it
// returns the committed frame itself, pinned until the transaction's next
// call. That is sound because nothing keeps a transaction buffer past its
// transaction, or a Read result past the next call: the WAL copies, a
// decoded node copies its coordinates out, and snapshots hold page ids,
// never buffers. The nodes a mutation decodes live in the writer's arena
// (diskrtree.Arena) until release resets it: nothing keeps a node or a
// rectangle of one past its mutation either.
//
// A Tx lives entirely under the index's write mutex; none of this is
// concurrency-safe on its own.

import (
	"fmt"

	"spatialdom/internal/pager"
	"spatialdom/internal/wal"
)

type stagedPage struct {
	id  pager.PageID
	buf []byte
	t   pager.PageType
	// live is cleared when the transaction frees its own staged page: the
	// image must then be neither logged nor installed.
	live bool
}

// Tx implements pager.TxPager over the index's committed pages.
type Tx struct {
	ix     *Index
	pages  []stagedPage         // in staging order, the WAL append order
	staged map[pager.PageID]int // page id → index in pages
	owned  map[pager.PageID]bool
	images []wal.PageImage // liveImages' result, reused

	// held is the committed page the last Read returned, pinned until the
	// transaction's next call; InvalidPage when none. Under poisonFreeBufs
	// that Read handed out heldCopy, a private copy, instead of the frame,
	// and the next call moves the copy, poisoned, to spent until release.
	held     pager.PageID
	heldCopy []byte
	spent    [][]byte

	popped  []pager.PageID // taken off the index free list by Alloc
	grown   []pager.PageID // appended to the page file by Alloc
	recycle []pager.PageID // owned pages freed again, reusable immediately
	freed   []pager.PageID // committed pages freed: reclaim after drain
}

var _ pager.TxPager = (*Tx)(nil)

// maxFreeBufs bounds the page buffers kept between transactions. On the
// repo benchmark's write workload (two passes on each of seeds 1 and 13)
// a mutation stages 8 pages at the median, 9 at p99 and 15 or 56 at most,
// the most a delete that dissolves a node and reinserts its entries. A
// larger transaction allocates its surplus and drops it afterwards.
const maxFreeBufs = 16

// poisonFreeBufs makes release fill every buffer it takes back with 0xDB,
// so anything still aliasing a transaction buffer after the transaction
// reads garbage, and makes Read hand out a private copy that the
// transaction's next call fills with 0xDB, so a caller that keeps a Read
// result past its contract reads garbage too. Set by this package's tests
// only.
var poisonFreeBufs bool

func newTx(ix *Index) *Tx {
	return &Tx{
		ix:     ix,
		staged: make(map[pager.PageID]int),
		owned:  make(map[pager.PageID]bool),
		held:   pager.InvalidPage,
	}
}

// PageSize returns the page payload size.
func (tx *Tx) PageSize() int { return tx.ix.pool.File().PageSize() }

// Owned reports whether the transaction allocated page id itself.
func (tx *Tx) Owned(id pager.PageID) bool { return tx.owned[id] }

// buffer draws one page buffer, contents unspecified, off the free list.
// Every buffer the Tx draws is staged, or is a Read copy under
// poisonFreeBufs, until it goes back through keep.
func (tx *Tx) buffer() []byte {
	m := tx.ix.mut
	n := len(m.freeBufs)
	if n == 0 {
		//nnc:allow hotpath-alloc: first-use growth of the free list; warm transactions draw recycled buffers
		return make([]byte, tx.PageSize())
	}
	buf := m.freeBufs[n-1]
	m.freeBufs = m.freeBufs[:n-1]
	return buf
}

// keep puts a buffer the Tx owns back on the free list, up to its bound,
// filled with 0xDB under poisonFreeBufs.
func (tx *Tx) keep(buf []byte) {
	m := tx.ix.mut
	if poisonFreeBufs {
		for j := range buf {
			buf[j] = 0xDB
		}
	}
	if len(m.freeBufs) < maxFreeBufs {
		m.freeBufs = append(m.freeBufs, buf)
	}
}

// unhold ends the buffer the last Read returned: it unpins the committed
// frame, or poisons the private copy poisonFreeBufs handed out instead.
// Every TxPager call that reads or writes a page, release and commitTx
// call it first.
func (tx *Tx) unhold() {
	if tx.held == pager.InvalidPage {
		return
	}
	if tx.heldCopy != nil {
		for j := range tx.heldCopy {
			tx.heldCopy[j] = 0xDB
		}
		tx.spent = append(tx.spent, tx.heldCopy)
		tx.heldCopy = nil
	} else {
		tx.ix.pool.Unpin(tx.held)
	}
	tx.held = pager.InvalidPage
}

// release ends the transaction, committed or aborted: its page buffers go
// back to the free list, up to the bound, its maps and slices are emptied
// for the next mutation — keeping no reference to a buffer — and the
// writer's arena, whose nodes and rectangles were the mutation's alone,
// is reset.
func (tx *Tx) release() {
	tx.unhold()
	m := tx.ix.mut
	if poisonFreeBufs {
		m.arena.Poison()
	}
	m.arena.Reset()
	for i := range tx.pages {
		tx.keep(tx.pages[i].buf)
	}
	for _, buf := range tx.spent {
		tx.keep(buf)
	}
	clear(tx.spent)
	tx.spent = tx.spent[:0]
	clear(tx.pages)
	clear(tx.images)
	clear(tx.staged)
	clear(tx.owned)
	tx.pages, tx.images = tx.pages[:0], tx.images[:0]
	tx.popped, tx.grown, tx.recycle, tx.freed = tx.popped[:0], tx.grown[:0], tx.recycle[:0], tx.freed[:0]
}

// stage records buf as page id's pending image.
func (tx *Tx) stage(id pager.PageID, buf []byte, t pager.PageType) {
	//nnc:allow hotpath-alloc: the map is cleared, not remade, between transactions; it grows to a transaction's page count once
	tx.staged[id] = len(tx.pages)
	tx.pages = append(tx.pages, stagedPage{id: id, buf: buf, t: t, live: true})
}

// liveImages returns the pages the transaction leaves staged, in staging
// order: what commitTx logs and then installs. A page the transaction
// freed again is neither.
func (tx *Tx) liveImages() []wal.PageImage {
	tx.images = tx.images[:0]
	for i := range tx.pages {
		if sp := &tx.pages[i]; sp.live {
			tx.images = append(tx.images, wal.PageImage{ID: sp.id, Type: sp.t, Data: sp.buf})
		}
	}
	return tx.images
}

// Read returns the staged copy when present, else the committed page's
// frame, pinned until the transaction's next call.
//
//nnc:hotpath
//nnc:allow ctx-flow: Tx implements pager.TxPager, which is ctx-free by design — a single-writer transaction is never cancelled mid-flight, only committed or aborted
func (tx *Tx) Read(id pager.PageID) ([]byte, error) {
	tx.unhold()
	if i, ok := tx.staged[id]; ok && tx.pages[i].live {
		return tx.pages[i].buf, nil
	}
	buf, err := tx.ix.pool.Get(id)
	if err != nil {
		return nil, err
	}
	tx.held = id
	if poisonFreeBufs {
		tx.heldCopy = tx.buffer()
		copy(tx.heldCopy, buf)
		tx.ix.pool.Unpin(id)
		return tx.heldCopy, nil
	}
	return buf, nil
}

// Stage returns the writable staged copy of page id, creating it from the
// committed content on first touch.
//
//nnc:hotpath
//nnc:allow ctx-flow: Tx implements pager.TxPager, which is ctx-free by design — a single-writer transaction is never cancelled mid-flight, only committed or aborted
func (tx *Tx) Stage(id pager.PageID, t pager.PageType) ([]byte, error) {
	tx.unhold()
	if i, ok := tx.staged[id]; ok {
		if !tx.pages[i].live {
			//nnc:allow hotpath-alloc: error path, a structure bug
			return nil, fmt.Errorf("diskindex: tx stages freed page %d", id)
		}
		return tx.pages[i].buf, nil
	}
	src, err := tx.ix.pool.Get(id)
	if err != nil {
		return nil, err
	}
	buf := tx.buffer()
	copy(buf, src)
	tx.ix.pool.Unpin(id)
	tx.stage(id, buf, t)
	return buf, nil
}

// Alloc returns a fresh zeroed staged page: a page the transaction itself
// freed earlier, else one off the index free list (pages whose last
// reader has drained), else a page appended to the file. File growth
// before commit is crash-safe — a grown page is unreachable from every
// committed root, and the file header's page count only persists on Sync.
//
//nnc:hotpath
//nnc:allow ctx-flow: Tx implements pager.TxPager, which is ctx-free by design — a single-writer transaction is never cancelled mid-flight, only committed or aborted
func (tx *Tx) Alloc(t pager.PageType) (pager.PageID, []byte, error) {
	tx.unhold()
	if n := len(tx.recycle); n > 0 {
		id := tx.recycle[n-1]
		tx.recycle = tx.recycle[:n-1]
		sp := &tx.pages[tx.staged[id]]
		clear(sp.buf)
		sp.t = t
		sp.live = true
		return id, sp.buf, nil
	}
	m := tx.ix.mut
	var id pager.PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
		tx.popped = append(tx.popped, id)
	} else {
		nid, _, err := tx.ix.pool.Allocate(t)
		if err != nil {
			return pager.InvalidPage, nil, err
		}
		tx.ix.pool.Unpin(nid)
		id = nid
		tx.grown = append(tx.grown, id)
	}
	//nnc:allow hotpath-alloc: the map is cleared, not remade, between transactions; it grows to a transaction's page count once
	tx.owned[id] = true
	buf := tx.buffer()
	clear(buf)
	tx.stage(id, buf, t)
	return id, buf, nil
}

// Free marks page id unreachable from the post-transaction state. An
// owned page never committed, so it is reusable at once; a committed page
// waits for every snapshot that can still reach it to drain.
func (tx *Tx) Free(id pager.PageID) {
	tx.unhold()
	if i, ok := tx.staged[id]; ok {
		tx.pages[i].live = false
	}
	if tx.owned[id] {
		tx.recycle = append(tx.recycle, id)
		return
	}
	tx.freed = append(tx.freed, id)
}

// abort hands the pages Alloc consumed back to the index free list: the
// popped ones were committed-free before, and the grown ones exist in the
// file but are unreachable from every committed root.
func (tx *Tx) abort() {
	m := tx.ix.mut
	m.free = append(m.free, tx.popped...)
	m.free = append(m.free, tx.grown...)
}
