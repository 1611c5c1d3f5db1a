// Package pager provides a fixed-size page file and a sharded LRU buffer
// pool — the storage substrate for the disk-resident form of the paper's
// indexes. The paper's experiments use 4096-byte pages for the global
// R-tree and report query response times that are dominated by how many
// pages a search touches; this package makes those page accesses explicit
// and countable.
//
// A PageFile stores fixed-size pages in a single OS file addressed by page
// id. A Pool caches pages with LRU eviction, write-back of dirty pages and
// hit/miss/read/write counters. Both are safe for concurrent use: the file
// uses positional reads/writes and atomic counters, and the pool shards
// its frame table so N goroutines can Get/Unpin pages with no global lock
// (see pool.go). Per-search I/O attribution goes through a Lease (see
// lease.go), whose counters are goroutine-local.
//
// # Page integrity
//
// Every page carries an 8-byte trailer:
//
//	crc32c u32 | format version u8 | page type u8 | reserved u16
//
// The CRC32C (Castagnoli) covers the payload plus the version and type
// bytes, and is verified on every physical page load — the buffer-pool
// miss path, so warm searches pay nothing. A failed verification is never
// retried blindly: exactly one re-read distinguishes an in-flight (torn)
// write from stable corruption, after which the page is quarantined and
// reads of it report faults.ErrUnavailable so queries can degrade instead
// of returning silently wrong candidate sets. Transient I/O errors (EIO
// and friends) are retried with capped exponential backoff and
// deterministic jitter, honoring the caller's context during every sleep.
//
// There is one format. The header's version byte must equal FormatVersion;
// Open refuses any other value before trusting a byte of the file, so no
// page is ever served unverified.
package pager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"spatialdom/internal/faults"
)

// PageSize is the default physical page size, matching the paper's
// configuration. The usable payload of a page is PageSize minus the 8-byte
// integrity trailer (see PageFile.PageSize).
const PageSize = 4096

// PageID addresses a page within a file.
type PageID uint32

// InvalidPage is the zero page id; page 0 is reserved for file metadata so
// user data never receives it.
const InvalidPage PageID = 0

// FormatVersion is the on-disk format Create writes and the only one Open
// accepts: every page ends in the integrity trailer.
const FormatVersion = 1

// trailerSize is the per-page integrity trailer.
const trailerSize = 8

// PageType tags what a page holds, stored in the trailer so fsck can
// report corruption per structure without decoding it.
type PageType uint8

// Page types. PageUnknown tags pages appended before their owner is known
// (WAL replay growing the file).
const (
	PageUnknown PageType = iota
	PageHeader
	PageSuper
	PageStoreMeta
	PageStoreData
	PageTreeMeta
	PageTreeNode
	PageStoreDir
	PageMapLog
)

// String names the page type for reports.
func (t PageType) String() string {
	switch t {
	case PageUnknown:
		return "unknown"
	case PageHeader:
		return "header"
	case PageSuper:
		return "super"
	case PageStoreMeta:
		return "store-meta"
	case PageStoreData:
		return "store-data"
	case PageTreeMeta:
		return "tree-meta"
	case PageTreeNode:
		return "tree-node"
	case PageStoreDir:
		return "store-dir"
	case PageMapLog:
		return "map-log"
	}
	return "invalid"
}

var (
	// ErrPageRange is returned when reading a page beyond the file end.
	ErrPageRange = errors.New("pager: page id out of range")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("pager: file closed")
	// ErrBadMagic is returned by Open (and Fsck) on a file that is not a
	// page file, so callers can distinguish "wrong file" from I/O failure.
	ErrBadMagic = errors.New("pager: bad magic")
	// ErrBadGeometry is returned when a header's declared geometry fails
	// plausibility checks before any of it is trusted for allocation.
	ErrBadGeometry = errors.New("pager: implausible geometry in header")
	// ErrBadVersion is returned by Open (and listed by Fsck) when the
	// header's version byte is not FormatVersion.
	ErrBadVersion = errors.New("pager: unsupported format version")
)

// castagnoli is the CRC32C table shared by every checksum computation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Option configures Create/Open.
type Option func(*fileConfig)

type fileConfig struct {
	retry faults.Retry
	wrap  func(io.ReaderAt) io.ReaderAt
}

// WithRetry overrides the transient-I/O retry policy (faults.DefaultRetry
// otherwise). A zero policy disables retries.
func WithRetry(r faults.Retry) Option {
	return func(c *fileConfig) { c.retry = r }
}

// WithReaderWrapper routes every physical read through wrap(file) — the
// hook the fault-injection harness uses to schedule bit flips, torn
// writes, short reads and transient errors on a real page file.
func WithReaderWrapper(wrap func(io.ReaderAt) io.ReaderAt) Option {
	return func(c *fileConfig) { c.wrap = wrap }
}

// PageFile is a page-granular file. Page 0 holds the file header (magic +
// page size + page count + format version); user pages start at 1. Reads
// and writes use positional I/O (pread/pwrite), so concurrent page
// transfers never race on a shared file offset; Allocate, Sync and Close
// serialize on an internal mutex.
type PageFile struct {
	f        *os.File
	r        io.ReaderAt // physical read path; wrapped under fault injection
	pageSize int         // physical page size
	payload  int         // usable bytes per page: pageSize - trailerSize
	retry    faults.Retry

	mu     sync.Mutex    // guards Allocate / Sync / Close (header + growth)
	pages  atomic.Uint32 // number of allocated pages, including page 0
	closed atomic.Bool

	// reads and writes count physical page transfers; read them through
	// Stats on the pool or IOCounts here.
	reads, writes atomic.Int64

	// scratch pools physical-size buffers for the read/write assembly
	// paths, so page transfers stay allocation-free in steady state.
	scratch sync.Pool

	// qmu guards quarantined: pages withdrawn from service after an
	// integrity failure, each mapped to its class error.
	qmu         sync.Mutex
	quarantined map[PageID]error

	// Fault counters (see faults.Stats).
	checksumFailures atomic.Int64
	tornPages        atomic.Int64
	shortReads       atomic.Int64
	transientRetries atomic.Int64
	recoveredReads   atomic.Int64
	quarantinedN     atomic.Int64
}

const magic = "SDPG"

func applyOptions(opts []Option) fileConfig {
	cfg := fileConfig{retry: faults.DefaultRetry}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// reader is the physical read path over f: f itself, or the fault-injection
// wrapper around it.
func (c fileConfig) reader(f *os.File) io.ReaderAt {
	if c.wrap != nil {
		return c.wrap(f)
	}
	return f
}

func newPageFile(f *os.File, r io.ReaderAt, pageSize int, retry faults.Retry) *PageFile {
	pf := &PageFile{f: f, r: r, pageSize: pageSize, payload: pageSize - trailerSize, retry: retry}
	pf.scratch.New = func() any {
		b := make([]byte, pf.pageSize)
		return &b
	}
	return pf
}

// Create creates (or truncates) a page file at path.
func Create(path string, pageSize int, opts ...Option) (*PageFile, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("pager: page size %d too small", pageSize)
	}
	cfg := applyOptions(opts)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	pf := newPageFile(f, cfg.reader(f), pageSize, cfg.retry)
	pf.pages.Store(1)
	if err := pf.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// readHeader reads and validates what page 0 declares — magic, page size,
// page count — against sane bounds and the physical file size, so a corrupt
// header can never trigger absurd allocations or out-of-range I/O. The
// version byte is returned unjudged: Open refuses a wrong one, Fsck reports
// it and goes on.
func readHeader(f *os.File, r io.ReaderAt) (ps, pages int, version byte, err error) {
	hdr := make([]byte, 16)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return 0, 0, 0, fmt.Errorf("pager: reading header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return 0, 0, 0, ErrBadMagic
	}
	ps, pages, version = int(le32(hdr[4:8])), int(le32(hdr[8:12])), hdr[12]
	const maxPageSize = 1 << 24
	if ps < 64 || ps > maxPageSize {
		return 0, 0, 0, fmt.Errorf("pager: implausible page size %d in header", ps)
	}
	if pages < 1 {
		return 0, 0, 0, fmt.Errorf("%w: page count %d", ErrBadGeometry, pages)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	if int64(pages)*int64(ps) > st.Size() {
		return 0, 0, 0, fmt.Errorf("pager: header declares %d pages of %d bytes but file has only %d bytes",
			pages, ps, st.Size())
	}
	return ps, pages, version, nil
}

// Open opens an existing page file. The header's version byte must be
// FormatVersion, and its page is verified like any other before the
// geometry it declares is trusted.
func Open(path string, opts ...Option) (pf *PageFile, err error) {
	cfg := applyOptions(opts)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	r := cfg.reader(f)
	ps, pages, version, err := readHeader(f, r)
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w %d (this build reads and writes %d)", ErrBadVersion, version, FormatVersion)
	}
	pf = newPageFile(f, r, ps, cfg.retry)
	pf.pages.Store(uint32(pages))
	full := make([]byte, ps)
	if _, err := r.ReadAt(full, 0); err != nil {
		return nil, fmt.Errorf("pager: reading header page: %w", err)
	}
	if _, err := pf.verifyPage(InvalidPage, full); err != nil {
		return nil, fmt.Errorf("pager: header page failed verification: %w", err)
	}
	return pf, nil
}

// writeHeader assembles and writes page 0. The caller holds pf.mu (or is
// single-goroutine setup).
func (pf *PageFile) writeHeader() error {
	hdr := make([]byte, pf.pageSize)
	copy(hdr, magic)
	putLE32(hdr[4:8], uint32(pf.pageSize))
	putLE32(hdr[8:12], pf.pages.Load())
	hdr[12] = FormatVersion
	pf.seal(hdr, PageHeader)
	_, err := pf.f.WriteAt(hdr, 0)
	return err
}

// seal fills the integrity trailer of a physical page image in place.
func (pf *PageFile) seal(phys []byte, t PageType) {
	tr := phys[pf.payload:]
	tr[4] = FormatVersion
	tr[5] = byte(t)
	tr[6], tr[7] = 0, 0
	putLE32(tr[0:4], pageCRC(phys[:pf.payload], tr[4], tr[5]))
}

// pageCRC is the CRC32C over payload ++ version ++ type.
func pageCRC(payload []byte, version, ptype byte) uint32 {
	crc := crc32.Update(0, castagnoli, payload)
	return crc32.Update(crc, castagnoli, []byte{version, ptype})
}

// verifyPage checks a physical page image against its trailer, returning
// the page's type.
func (pf *PageFile) verifyPage(id PageID, phys []byte) (PageType, error) {
	tr := phys[pf.payload:]
	want := le32(tr[0:4])
	got := pageCRC(phys[:pf.payload], tr[4], tr[5])
	if got != want {
		return PageUnknown, fmt.Errorf("%w: page %d crc %08x != stored %08x", faults.ErrChecksum, id, got, want)
	}
	return PageType(tr[5]), nil
}

// PageSize returns the usable payload bytes per page — what every buffer
// passed to ReadPage/WritePage must hold, and the unit all page-layout
// arithmetic (R-tree node capacity, store record packing) is derived from:
// the physical page size minus the integrity trailer.
func (pf *PageFile) PageSize() int { return pf.payload }

// PhysicalPageSize returns the on-disk page size including the trailer.
func (pf *PageFile) PhysicalPageSize() int { return pf.pageSize }

// Len returns the number of user pages allocated.
func (pf *PageFile) Len() int { return int(pf.pages.Load()) - 1 }

// IOCounts returns the cumulative physical page reads and writes.
func (pf *PageFile) IOCounts() (reads, writes int64) {
	return pf.reads.Load(), pf.writes.Load()
}

// FaultStats returns the file's cumulative fault counters.
func (pf *PageFile) FaultStats() faults.Stats {
	return faults.Stats{
		ChecksumFailures: pf.checksumFailures.Load(),
		TornPages:        pf.tornPages.Load(),
		ShortReads:       pf.shortReads.Load(),
		TransientRetries: pf.transientRetries.Load(),
		RecoveredReads:   pf.recoveredReads.Load(),
		QuarantinedPages: pf.quarantinedN.Load(),
	}
}

// quarantinePage withdraws the page and returns the unavailable error
// future reads of it will also see.
func (pf *PageFile) quarantinePage(id PageID, op string, class error) error {
	pf.qmu.Lock()
	if pf.quarantined == nil {
		pf.quarantined = make(map[PageID]error)
	}
	if _, dup := pf.quarantined[id]; !dup {
		pf.quarantined[id] = class
		pf.quarantinedN.Add(1)
	}
	pf.qmu.Unlock()
	return &faults.PageError{Op: op, Page: uint32(id), Err: class, Quarantined: true}
}

// quarantineErr returns the unavailable error for an already-quarantined
// page, or nil.
func (pf *PageFile) quarantineErr(id PageID) error {
	pf.qmu.Lock()
	class, ok := pf.quarantined[id]
	pf.qmu.Unlock()
	if !ok {
		return nil
	}
	return &faults.PageError{Op: "read", Page: uint32(id), Err: class, Quarantined: true}
}

// getScratch borrows a physical-size buffer.
func (pf *PageFile) getScratch() *[]byte { return pf.scratch.Get().(*[]byte) }

func (pf *PageFile) putScratch(b *[]byte) { pf.scratch.Put(b) }

// grow appends zeroed pages sealed as type t until the file holds n pages,
// the header page included. The caller holds pf.mu.
func (pf *PageFile) grow(n int, t PageType) error {
	zp := pf.getScratch()
	defer pf.putScratch(zp)
	zero := *zp
	clear(zero)
	pf.seal(zero, t)
	for id := int(pf.pages.Load()); id < n; id++ {
		if _, err := pf.f.WriteAt(zero, int64(id)*int64(pf.pageSize)); err != nil {
			return err
		}
		pf.pages.Add(1)
		pf.writes.Add(1)
	}
	return nil
}

// Allocate appends a zeroed page tagged with the given type and returns
// its id.
func (pf *PageFile) Allocate(t PageType) (PageID, error) {
	if pf.closed.Load() {
		return InvalidPage, ErrClosed
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	id := PageID(pf.pages.Load())
	if err := pf.grow(int(id)+1, t); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

// EnsurePages grows the file until it holds at least n pages (including
// the header page), appending zeroed pages tagged PageUnknown. WAL
// recovery uses it: a crash can commit page images for pages the header's
// count never recorded, and replay must be able to land them.
func (pf *PageFile) EnsurePages(n int) error {
	if pf.closed.Load() {
		return ErrClosed
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if int(pf.pages.Load()) >= n {
		return nil
	}
	if err := pf.grow(n, PageUnknown); err != nil {
		return err
	}
	return pf.writeHeader()
}

// ReadPage reads page id's payload into buf (len must equal PageSize),
// verifying integrity and retrying transient failures. Safe to call from
// any number of goroutines. It is ReadPageCtx without a cancellation
// context; prefer ReadPageCtx on query paths.
func (pf *PageFile) ReadPage(id PageID, buf []byte) (PageType, error) {
	return pf.ReadPageCtx(context.Background(), id, buf)
}

// ReadPageCtx reads page id's payload into buf with the full
// fault-tolerance protocol:
//
//   - transient I/O errors retry with capped exponential backoff and
//     deterministic jitter, sleeping ctx-aware;
//   - integrity failures (checksum mismatch, short read) are re-read
//     exactly once — a re-read that verifies means an in-flight write
//     settled (counted as recovered), a re-read with different bytes means
//     a torn write, identical bytes mean stable corruption;
//   - persistent integrity failures quarantine the page: this call and
//     every later read of the page return an error matching
//     faults.ErrUnavailable, the signal for graceful degradation.
func (pf *PageFile) ReadPageCtx(ctx context.Context, id PageID, buf []byte) (PageType, error) {
	if pf.closed.Load() {
		return PageUnknown, ErrClosed
	}
	if pages := PageID(pf.pages.Load()); id == InvalidPage || id >= pages {
		return PageUnknown, fmt.Errorf("%w: %d (have %d)", ErrPageRange, id, pages)
	}
	if len(buf) != pf.payload {
		return PageUnknown, fmt.Errorf("pager: buffer size %d != page payload %d", len(buf), pf.payload)
	}
	if err := pf.quarantineErr(id); err != nil {
		return PageUnknown, err
	}

	pp := pf.getScratch()
	defer pf.putScratch(pp)
	phys := *pp
	var (
		prev      *[]byte // stashed first failing image; non-nil = re-read spent
		failed    bool
		transient int
	)
	defer func() {
		if prev != nil {
			pf.putScratch(prev)
		}
	}()
	off := int64(id) * int64(pf.pageSize)
	for {
		_, rerr := pf.r.ReadAt(phys, off)
		if rerr == nil {
			ptype, verr := pf.verifyPage(id, phys)
			if verr == nil {
				if failed {
					pf.recoveredReads.Add(1)
				}
				copy(buf, phys[:pf.payload])
				pf.reads.Add(1)
				return ptype, nil
			}
			pf.checksumFailures.Add(1)
			failed = true
			if prev == nil {
				// First integrity failure: stash the image and spend the
				// single re-read.
				prev = pf.getScratch()
				copy(*prev, phys)
				continue
			}
			// Second failure: identical bytes = stable corruption, different
			// bytes = a torn write was observed. Either way the page leaves
			// service.
			class := error(faults.ErrChecksum)
			if !bytes.Equal(*prev, phys) {
				pf.tornPages.Add(1)
				class = faults.ErrTornPage
			}
			return PageUnknown, pf.quarantinePage(id, "read", class)
		}
		switch faults.Classify(rerr) {
		case faults.ClassShortRead:
			pf.shortReads.Add(1)
			failed = true
			if prev == nil {
				prev = pf.getScratch()
				copy(*prev, phys)
				continue
			}
			return PageUnknown, pf.quarantinePage(id, "read",
				fmt.Errorf("%w: %w", faults.ErrShortRead, rerr))
		case faults.ClassTransient:
			failed = true
			if transient < pf.retry.Max {
				d := pf.retry.Backoff(transient, uint64(id))
				transient++
				pf.transientRetries.Add(1)
				if serr := faults.Sleep(ctx, d); serr != nil {
					return PageUnknown, serr
				}
				continue
			}
			return PageUnknown, &faults.PageError{Op: "read", Page: uint32(id),
				Err: fmt.Errorf("%w: %w (gave up after %d retries)", faults.ErrTransientIO, rerr, transient)}
		default:
			return PageUnknown, &faults.PageError{Op: "read", Page: uint32(id), Err: rerr}
		}
	}
}

// WritePage writes buf (one page payload) to page id, sealing the
// integrity trailer with the given page type.
func (pf *PageFile) WritePage(id PageID, buf []byte, t PageType) error {
	if pf.closed.Load() {
		return ErrClosed
	}
	if id == InvalidPage || id >= PageID(pf.pages.Load()) {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if len(buf) != pf.payload {
		return fmt.Errorf("pager: buffer size %d != page payload %d", len(buf), pf.payload)
	}
	pp := pf.getScratch()
	defer pf.putScratch(pp)
	phys := *pp
	copy(phys, buf)
	pf.seal(phys, t)
	if _, err := pf.f.WriteAt(phys, int64(id)*int64(pf.pageSize)); err != nil {
		return err
	}
	pf.writes.Add(1)
	return nil
}

// Sync flushes the header and file contents to stable storage.
func (pf *PageFile) Sync() error {
	if pf.closed.Load() {
		return ErrClosed
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if err := pf.writeHeader(); err != nil {
		return err
	}
	return pf.f.Sync()
}

// Close syncs and closes the file.
func (pf *PageFile) Close() error {
	if pf.closed.Load() {
		return nil
	}
	err := pf.Sync()
	pf.closed.Store(true)
	if cerr := pf.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
