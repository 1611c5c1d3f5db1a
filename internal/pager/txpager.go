package pager

// TxPager is the one page surface a disk structure writes through. It has
// two implementations:
//
//   - the mutable disk index's write transaction (internal/diskindex), which
//     stages every modified page in memory; nothing reaches the WAL, the
//     buffer pool or the page file until the transaction commits, and an
//     abort simply discards the staging area. Reads see the transaction's
//     own staged writes first (read-your-writes), then the committed state;
//   - Direct, the bulk build of a fresh file, which writes every page in its
//     own pool frame.
//
// The R-tree and object-store write paths (internal/diskrtree,
// internal/diskstore) are written against this interface only, so a build
// and a mutation run the same code and stay ignorant of WAL framing,
// free-list policy and epoch bookkeeping.
//
// A buffer Read returns lives until the next call on the TxPager, under
// either implementation: it may be the committed page's pool frame, pinned
// for exactly that long, so a structure decodes or copies what it needs
// before its next call and never writes it. A buffer Stage or Alloc
// returns lives for the transaction under a Tx, but only until the next
// call under Direct: every structure writes a buffer before its next call
// on the TxPager.
//
// All methods are single-goroutine: a transaction belongs to the one
// writer the index admits at a time.
type TxPager interface {
	// Read returns page id's payload, valid until the next call: the
	// staged copy when the transaction already touched it, else the
	// committed page's frame, pinned until then. The returned buffer must
	// not be mutated; use Stage for that.
	Read(id PageID) ([]byte, error)

	// Stage returns a writable staged copy of page id, creating it from
	// the committed content on first touch. Mutations to the returned
	// buffer are the transaction's pending write of that page.
	Stage(id PageID, t PageType) ([]byte, error)

	// Alloc returns a fresh writable page: recycled from the free list
	// when a page's last reader epoch has drained, else appended to the
	// file. The buffer is zeroed and staged.
	Alloc(t PageType) (PageID, []byte, error)

	// Free marks page id unreachable from the post-transaction state. The
	// page is not reused until every search pinned to a snapshot that
	// could still reach it has finished.
	Free(id PageID)

	// Owned reports whether page id was allocated by this transaction.
	// Structures use it to rewrite their own fresh pages in place instead
	// of copy-on-writing them a second time.
	Owned(id PageID) bool

	// PageSize returns the page payload size.
	PageSize() int
}

// Direct is the TxPager of a bulk build into a fresh file. The file has no
// reader and no log yet, so every page belongs to the build: Owned is
// always true, Free does nothing, and a page is written in its own pool
// frame, which stays pinned until the next call and is then marked dirty
// and released. A build therefore holds one page outside the pool's LRU,
// never a staged copy of the file. Flush ends the build.
type Direct struct {
	pool *Pool
	held PageID // the page handed out last, pinned; InvalidPage when none
}

var _ TxPager = (*Direct)(nil)

// NewDirect returns a build TxPager over pool.
func NewDirect(pool *Pool) *Direct { return &Direct{pool: pool, held: InvalidPage} }

// release marks the page handed out last dirty and unpins it.
func (d *Direct) release() {
	if d.held != InvalidPage {
		d.pool.markDirty(d.held)
		d.pool.Unpin(d.held)
		d.held = InvalidPage
	}
}

// Read returns page id's frame, valid until the next call.
func (d *Direct) Read(id PageID) ([]byte, error) {
	d.release()
	buf, err := d.pool.Get(id)
	if err == nil {
		d.held = id
	}
	return buf, err
}

// Stage is Read: the frame is the page, and the page keeps the type it
// was allocated with.
func (d *Direct) Stage(id PageID, _ PageType) ([]byte, error) { return d.Read(id) }

// Alloc appends a zeroed page of type t to the file and returns its frame,
// valid until the next call.
func (d *Direct) Alloc(t PageType) (PageID, []byte, error) {
	d.release()
	id, buf, err := d.pool.Allocate(t)
	if err == nil {
		d.held = id
	}
	return id, buf, err
}

// Free does nothing: a build never unlinks a page it wrote.
func (d *Direct) Free(PageID) {}

// Owned is always true: every page of a fresh file is the build's.
func (d *Direct) Owned(PageID) bool { return true }

// PageSize returns the page payload size.
func (d *Direct) PageSize() int { return d.pool.File().PageSize() }

// Flush releases the page handed out last and writes every dirty frame to
// the file.
func (d *Direct) Flush() error {
	d.release()
	return d.pool.Flush()
}
