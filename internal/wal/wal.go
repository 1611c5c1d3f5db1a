// Package wal implements the write-ahead log behind the mutable disk
// index. Every write transaction is one Log.Commit: page images followed
// by a commit record, then an fsync, so a transaction is durable exactly
// when its commit record is on stable storage. A record is encoded once,
// in place, into one buffer the log owns; a transaction's image records
// reach the file in one write and its commit record in a second, so a
// failed image write promised nothing and a failed commit write or fsync
// leaves durability indeterminate (ErrIndeterminate). Recovery replays the
// page images of committed transactions into the page file and starts a
// new generation — a crash at any byte offset of the log yields either the
// pre-transaction or the post-transaction state, never a mixture (see
// DESIGN.md §11).
//
// # Record grammar (version 3)
//
// The file opens with a 16-byte header:
//
//	"SDWL" | version u8 | reserved u8×3 | page payload u32 | generation u32
//
// followed by a sequence of records:
//
//	type u8 | txid u64 | plen u32 | payload [plen] | crc32c u32
//
// The CRC32C (Castagnoli — the same polynomial as the pager's page
// trailers) covers the record header and payload and is seeded with the
// header's generation, so a record verifies only in the generation that
// wrote it. Record types:
//
//	1 page-image  payload = pageID u32 | pageType u8 | image prefix [plen−5]
//	2 commit      payload empty; Commit fsyncs before returning
//	3 checkpoint  payload empty; all txids ≤ txid are in the page file
//
// An image is still a whole page of the header's payload size: the logged
// prefix runs to the page's last non-zero byte and the zeros after it are
// implied, so 5 ≤ plen ≤ 5 + page payload. An all-zero page logs no byte
// of image; a page with no zero tail logs all of it. Only Recover pads an
// image back to a page, into a buffer sized by the page file — never by a
// length the log declares.
//
// Version 2 always logged the full page, plen = 5 + page payload. Version
// 1 had no generation either: its reserved header word is zero and its
// CRCs are seeded with zero, so a version-1 log reads as generation 0.
// Both are version-3 logs whose images have no implied zeros, and replay
// unchanged. A log opened at an older version gets the version-3 header
// before its first record lands, so no binary that reads only full images
// takes a prefix for a torn tail.
//
// # Recycling
//
// A checkpoint does not truncate the log. It bumps the generation in the
// header — one small write in place, then an fsync — and appends from the
// header again, so a commit overwrites file pages the log already owns
// instead of allocating new ones and changing the file's size. Whatever
// the older generations left past the current one's end no longer
// verifies. The generation is stored big-endian and only ever grows by
// one: a header write torn at any byte leaves the old value or one at
// least the new, never the value of a generation whose records could
// still lie in the file. (It wraps after 2³² checkpoints.)
//
// A scan stops at the first record that is short, oversized, of unknown
// type or whose CRC fails under the current generation. The bytes past
// that point are a torn append of the current generation, or bytes an
// older generation left (ScanInfo.Torn, ScanInfo.Stale); recovery drops
// both. Because every image is a whole page — its prefix followed by
// zeros (physical redo) — replay is idempotent: applying a committed
// transaction twice converges to the same bytes.
//
// One write path still truncates: a write that failed part-way, or a scan
// that stopped short, may leave records of the current generation past
// the append offset, and a shorter append over them could leave a stale
// but valid record beyond its end for a later scan to replay. The next
// write truncates them first.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"spatialdom/internal/pager"
)

// Record types.
const (
	RecPageImage  byte = 1
	RecCommit     byte = 2
	RecCheckpoint byte = 3
)

// Format constants.
const (
	headerSize    = 16
	recHeaderSize = 13 // type u8 | txid u64 | plen u32
	crcSize       = 4
	walMagic      = "SDWL"
	// Version is the log format version written by Open and by a reset.
	Version = 3
)

var (
	// ErrTornTail marks a scan that stopped before EOF: the bytes past the
	// scan end are a torn append, dropped by recovery.
	ErrTornTail = errors.New("wal: torn tail")
	// ErrCrash is returned by a CrashFile once its write budget is spent —
	// the injected "process died here" signal of the kill-point sweep.
	ErrCrash = errors.New("wal: injected crash")
	// ErrIndeterminate wraps a Commit error raised once the commit record's
	// write was issued: the record may or may not be on stable storage, so
	// only a recovery pass can say whether the transaction happened.
	ErrIndeterminate = errors.New("wal: commit durability indeterminate")
	// ErrBadMagic is returned by Open on a file that is not a WAL, so
	// callers can distinguish "wrong file" from I/O failure.
	ErrBadMagic = errors.New("wal: bad magic")
	// errNotReset refuses a Trim that would cut records off.
	errNotReset = errors.New("wal: trim of a log that was not just reset")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the backing-store surface the log writes through. *os.File
// implements it; CrashFile wraps one to die at a chosen byte offset.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an append-only write-ahead log over a recycled file. A Log
// belongs to one writer goroutine at a time (the index serializes writers
// on its own mutex); none of its methods lock.
type Log struct {
	f       File
	path    string
	payload int    // page payload bytes carried by each page-image record
	gen     uint32 // the header's generation; seeds every record's CRC
	off     int64  // append offset = end of last valid record
	lastTx  uint64
	// dirtyTail records that records of the current generation may lie
	// past the append offset: a scan stopped short of the file's end, or a
	// write failed part-way. The next write truncates them first: merely
	// overwriting could leave a stale-but-valid record beyond a shorter
	// fresh one, and a later scan would replay it.
	dirtyTail bool
	// staleHeader records that the file may not hold the header this log
	// writes: a reset's header write or fsync failed, so the file may still
	// name the previous generation, or the log was opened at an older
	// format version. The next write writes and syncs the header first, so
	// no record lands under a header that would not verify it or whose
	// version does not admit a trimmed image.
	staleHeader bool
	// buf is the encode buffer Commit reuses across transactions (see
	// maxRetainedRecords).
	buf []byte
}

// PageImageRecordSize returns the encoded size of the largest page-image
// record for the given page payload: the record of a page with no zero
// tail. A record of a page whose tail is zero is shorter by the tail.
func PageImageRecordSize(payload int) int64 {
	return int64(recHeaderSize + 5 + payload + crcSize)
}

// CommitRecordSize is the encoded size of a commit (or checkpoint) record.
const CommitRecordSize = int64(recHeaderSize + crcSize)

// HeaderSize is the size of the log file header.
const HeaderSize = int64(headerSize)

// Open opens (creating if absent) the log at path. payload is the page
// payload size of the page file the log protects; an existing log must
// declare the same. wrap, if non-nil, intercepts the underlying file —
// the crash-injection hook. Open does not scan records; use Scan or
// Recover to position the log after existing content.
func Open(path string, payload int, wrap func(*os.File) File) (*Log, error) {
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	var f File = osf
	if wrap != nil {
		f = wrap(osf)
	}
	st, err := osf.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path, payload: payload, off: HeaderSize}
	if st.Size() < HeaderSize {
		// Fresh (or torn-at-birth) log: write the header. A header torn by
		// a crash is indistinguishable from an empty log, which is correct:
		// no record can precede a complete header.
		if err := l.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	h, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if h.payload != payload {
		f.Close()
		return nil, fmt.Errorf("wal: log page payload %d != page file payload %d", h.payload, payload)
	}
	l.gen = h.gen
	l.staleHeader = h.version < Version
	return l, nil
}

// header is the decoded file header.
type header struct {
	version byte
	payload int
	gen     uint32
}

// readHeader reads and checks the header of an existing log: the magic,
// and a version this code can read.
func readHeader(f io.ReaderAt) (header, error) {
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return header{}, fmt.Errorf("wal: reading header: %w", err)
	}
	if string(hdr[:4]) != walMagic {
		return header{}, ErrBadMagic
	}
	if hdr[4] > Version {
		return header{}, fmt.Errorf("wal: format version %d is newer than supported %d", hdr[4], Version)
	}
	return header{version: hdr[4], payload: int(le32(hdr[8:12])), gen: binary.BigEndian.Uint32(hdr[12:16])}, nil
}

// writeHeader writes the current version's header naming the log's generation in
// place and syncs it.
func (l *Log) writeHeader() error {
	var hdr [headerSize]byte
	copy(hdr[:], walMagic)
	hdr[4] = Version
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(l.payload))
	binary.BigEndian.PutUint32(hdr[12:16], l.gen)
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return l.f.Sync()
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Size returns the append offset — the log's valid length in bytes. The
// file may be longer: a checkpoint recycles it rather than truncating.
func (l *Log) Size() int64 { return l.off }

// Close closes the underlying file without truncating or syncing.
func (l *Log) Close() error { return l.f.Close() }

// PageImage is one page of a transaction: the page's whole payload, which
// Commit logs under the transaction's id up to its last non-zero byte.
type PageImage struct {
	ID   pager.PageID
	Type pager.PageType
	Data []byte
}

// maxRetainedRecords bounds the encode buffer kept between transactions,
// in page-image records: on the repo benchmark's write workload a commit
// carries 8 at the median and 12 at p99.9. The buffer a larger commit grew
// is let go after it.
const maxRetainedRecords = 12

// appendRecord appends one encoded record to buf: header, body (a page
// image's id, type and bytes up to the last non-zero one; empty for commit
// and checkpoint), and the CRC over both, seeded with the generation gen.
func appendRecord(buf []byte, gen uint32, typ byte, txid uint64, im PageImage) []byte {
	start := len(buf)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, txid)
	if typ == RecPageImage {
		img := im.Data[:imageLen(im.Data)]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(5+len(img)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(im.ID))
		buf = append(buf, byte(im.Type))
		buf = append(buf, img...)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, 0)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Update(gen, castagnoli, buf[start:]))
}

// zeroBlock is the zero tail imageLen compares a page against, a block at
// a time.
var zeroBlock [256]byte

// imageLen returns the length of p up to its last non-zero byte: the
// prefix of a page a page-image record logs. It steps back over the zero
// tail a block at a time, then a word, then a byte.
func imageLen(p []byte) int {
	n := len(p)
	for n >= len(zeroBlock) && bytes.Equal(p[n-len(zeroBlock):n], zeroBlock[:]) {
		n -= len(zeroBlock)
	}
	for n >= 8 && binary.LittleEndian.Uint64(p[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n
}

// write puts p at the append offset in one WriteAt, without syncing, first
// rewriting a header a failed reset left behind and truncating any bytes a
// scan or a failed write left past that offset. On error the offset has
// not moved and the tail is dirty — a shorter later write would not cover
// whatever part of this one landed.
func (l *Log) write(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if l.staleHeader {
		if err := l.writeHeader(); err != nil {
			//nnc:allow hotpath-alloc: error path
			return fmt.Errorf("wal: rewriting the header before append: %w", err)
		}
		l.staleHeader = false
	}
	if l.dirtyTail {
		if err := l.f.Truncate(l.off); err != nil {
			//nnc:allow hotpath-alloc: error path
			return fmt.Errorf("wal: truncating torn tail before append: %w", err)
		}
		l.dirtyTail = false
	}
	if _, err := l.f.WriteAt(p, l.off); err != nil {
		l.dirtyTail = true
		return err
	}
	l.off += int64(len(p))
	return nil
}

// Commit logs one transaction under the next transaction id: its page
// images in one write, its commit record in a second, then one fsync. It
// is the only way a page image reaches the log, so an image without its
// commit record, a commit record ahead of its images and a success return
// ahead of the fsync are not orders a caller can produce. The images'
// buffers are the caller's own again on return. A nil error means the
// transaction is durable. An error up to and including the image write
// promised nothing — whatever landed is a torn tail the next write
// truncates; an error from the commit record's write or the fsync wraps
// ErrIndeterminate.
//
//nnc:hotpath
func (l *Log) Commit(images []PageImage) (txid uint64, err error) {
	l.lastTx++
	txid = l.lastTx
	buf := l.buf[:0]
	for _, im := range images {
		if len(im.Data) != l.payload {
			//nnc:allow hotpath-alloc: error path, a caller bug
			return txid, fmt.Errorf("wal: image size %d != page payload %d", len(im.Data), l.payload)
		}
		buf = appendRecord(buf, l.gen, RecPageImage, txid, im)
	}
	body := len(buf)
	buf = appendRecord(buf, l.gen, RecCommit, txid, PageImage{})
	l.buf = buf
	if body > maxRetainedRecords*int(PageImageRecordSize(l.payload)) {
		l.buf = nil
	}
	if err = l.write(buf[:body]); err != nil {
		return txid, err
	}
	// The commit point: from this write on a failure cannot say whether
	// the record is on stable storage.
	if err = l.write(buf[body:]); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		//nnc:allow hotpath-alloc: error path
		return txid, fmt.Errorf("%w: %w", ErrIndeterminate, err)
	}
	return txid, nil
}

// Checkpoint records that every transaction logged so far is applied and
// synced in the page file, fsyncs, and resets the log to a new generation
// — valid only when the page file durably holds them. The record stops
// verifying as soon as the new header is on disk; if the header write is
// interrupted it documents the state for wal-dump and the (idempotent)
// recovery replay.
func (l *Log) Checkpoint() error {
	if err := l.write(appendRecord(l.buf[:0], l.gen, RecCheckpoint, l.lastTx, PageImage{})); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return l.reset()
}

// reset starts the next generation: the header names it, the append
// offset returns to the header's end, and every record in the file stops
// verifying. Nothing is truncated, so the next commits overwrite file
// space the log already owns. If the header write or its fsync fails the
// log is still reset in memory and the next write retries the header
// before any record of the new generation lands: the older records are
// all in the page file, so the file may name either generation meanwhile.
func (l *Log) reset() error {
	l.gen++
	l.off = HeaderSize
	l.dirtyTail = false
	if err := l.writeHeader(); err != nil {
		l.staleHeader = true
		return err
	}
	l.staleHeader = false
	return nil
}

// Trim truncates the file to its header and syncs it: a log that holds
// no record — right after a checkpoint or a recovery — gives back the
// file space it recycles, as a clean shutdown does.
func (l *Log) Trim() error {
	if l.off != HeaderSize || l.staleHeader {
		return errNotReset
	}
	if err := l.f.Truncate(HeaderSize); err != nil {
		return err
	}
	l.dirtyTail = false
	return l.f.Sync()
}

// Rec is one decoded record delivered by Scan. Image fields are only set
// for page-image records. Image is the logged prefix of the page, at most
// the log's page payload long; the page's bytes past it are zero. It
// aliases a scan-internal buffer, valid only during the callback.
type Rec struct {
	Off   int64 // file offset of the record
	Type  byte
	TxID  uint64
	Page  pager.PageID
	PType pager.PageType
	Image []byte
}

// ScanInfo summarizes a sequential scan. End+Torn+Stale is the file's
// size, and at most one of Torn and Stale is nonzero.
type ScanInfo struct {
	Records int   // valid records delivered
	End     int64 // offset one past the last valid record
	// Torn counts the bytes past End when they begin with a torn append of
	// the current generation: a record header no older generation wrote.
	// In a log that was never recycled (generation 0) every byte past End
	// is torn.
	Torn int64
	// Stale counts the bytes past End when an older generation left them:
	// the record there is whole and verifies under an older generation, or
	// no record header lies there at all (End fell inside an older record).
	Stale int64
}

// Scan reads every valid record in order, invoking fn for each, and stops
// at the first torn, corrupt or older-generation record. It positions the
// log's append offset at the end of the valid prefix; the first append
// after a scan that stopped short of the file's end truncates the rest
// before writing.
func (l *Log) Scan(fn func(Rec) error) (*ScanInfo, error) {
	size := fileSize(l.f)
	info := &ScanInfo{End: HeaderSize}
	off := HeaderSize
	hdr := make([]byte, recHeaderSize)
	var payload []byte
	maxPlen := 5 + l.payload
	// older says what stopped the scan: bytes an older generation left.
	// Until a record header is read, that is any tail of a recycled log.
	var older bool
	for {
		older = l.gen > 0
		if off+int64(recHeaderSize+crcSize) > size {
			break // not even a minimal record fits: tail
		}
		if _, err := l.f.ReadAt(hdr, off); err != nil {
			break
		}
		typ := hdr[0]
		txid := le64(hdr[1:9])
		plen := int(le32(hdr[9:13]))
		if plen > maxPlen {
			break // implausible length: corrupt header
		}
		switch typ {
		case RecPageImage:
			if plen < 5 {
				typ = 0
			}
		case RecCommit, RecCheckpoint:
			if plen != 0 {
				typ = 0
			}
		default:
			typ = 0
		}
		if typ == 0 {
			break // unknown type or type/length mismatch
		}
		// A well-formed header: some generation began a record here.
		older = false
		recLen := int64(recHeaderSize + plen + crcSize)
		if off+recLen > size {
			break // record runs past EOF: torn append
		}
		if cap(payload) < plen+crcSize {
			payload = make([]byte, plen+crcSize)
		}
		body := payload[:plen+crcSize]
		if _, err := l.f.ReadAt(body, off+int64(recHeaderSize)); err != nil {
			break
		}
		crc := crc32.Update(l.gen, castagnoli, hdr)
		crc = crc32.Update(crc, castagnoli, body[:plen])
		if stored := le32(body[plen:]); crc != stored {
			// Torn or corrupt, or whole under an older generation.
			older = seedOf(stored, crc, l.gen, recHeaderSize+plen) < l.gen
			break
		}
		r := Rec{Off: off, Type: typ, TxID: txid}
		if typ == RecPageImage {
			r.Page = pager.PageID(le32(body[0:4]))
			r.PType = pager.PageType(body[4])
			r.Image = body[5:plen]
		}
		if fn != nil {
			if err := fn(r); err != nil {
				return info, err
			}
		}
		off += recLen
		info.Records++
		info.End = off
		if txid > l.lastTx {
			l.lastTx = txid
		}
	}
	if older {
		info.Stale = size - info.End
	} else {
		info.Torn = size - info.End
	}
	l.off = info.End
	l.dirtyTail = info.End < size
	return info, nil
}

// seedOf returns the generation whose seed gives a record of n bytes the
// CRC stored, given crc, its CRC under the seed gen. The table is linear,
// so the CRC of p seeded with g is its CRC seeded with 0 XOR g pushed
// through n zero-byte steps of the register; a zero-byte step is a
// bijection — the top byte of castagnoli[i] names i — so stored XOR crc
// runs back to the XOR of the two seeds. Only a scan's last, failed record
// pays for it.
func seedOf(stored, crc, gen uint32, n int) uint32 {
	s := stored ^ crc
	for ; n > 0; n-- {
		i := castagnoliTop[s>>24]
		s = (s^castagnoli[i])<<8 | uint32(i)
	}
	return s ^ gen
}

// castagnoliTop inverts the top byte of the CRC table: castagnoli[i]>>24
// is distinct for every i.
var castagnoliTop = func() (inv [256]byte) {
	for i, v := range castagnoli {
		inv[v>>24] = byte(i)
	}
	return inv
}()

// RecoveryStats reports what Recover did.
type RecoveryStats struct {
	Records      int   // valid records scanned
	CommittedTxs int   // transactions replayed into the page file
	PagesApplied int   // page images written during replay
	TornBytes    int64 // bytes of a torn append dropped past the last record
	DroppedTxs   int   // transactions with images but no commit record
}

// Recover makes the page file consistent with the log: it scans the
// valid record prefix, replays the page images of every committed
// transaction in log order (growing the page file as needed) — each
// logged prefix padded with zeros to a whole page of the page file's
// payload, in one buffer sized by the page file — syncs the
// page file, and finally resets the log to a new generation — at which
// point the page file alone holds the latest committed state, and neither
// the replayed records nor a torn tail past them verify any more. Replay
// is idempotent, so a crash during Recover is repaired by running it
// again.
func Recover(l *Log, pf *pager.PageFile) (*RecoveryStats, error) {
	// Pass 1: find the committed transaction set and the valid prefix.
	committed := make(map[uint64]bool)
	pending := make(map[uint64]bool)
	info, err := l.Scan(func(r Rec) error {
		switch r.Type {
		case RecPageImage:
			pending[r.TxID] = true
		case RecCommit:
			committed[r.TxID] = true
			delete(pending, r.TxID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := &RecoveryStats{Records: info.Records, TornBytes: info.Torn, DroppedTxs: len(pending)}
	st.CommittedTxs = len(committed)
	if len(committed) == 0 {
		// Anything in the file past the header that is not the current
		// generation's: a new generation makes sure it never verifies.
		if info.Records > 0 || info.Torn+info.Stale > 0 {
			if err := l.reset(); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	// Pass 2: apply committed images in log order. Later transactions
	// overwrite earlier images of the same page, converging on the newest
	// committed version.
	var applyErr error
	page := make([]byte, pf.PageSize())
	_, err = l.Scan(func(r Rec) error {
		if r.Type != RecPageImage || !committed[r.TxID] {
			return nil
		}
		if len(r.Image) > len(page) {
			applyErr = fmt.Errorf("page %d: a %d-byte image for a %d-byte page payload", r.Page, len(r.Image), len(page))
			return applyErr
		}
		clear(page[copy(page, r.Image):])
		if need := int(r.Page) + 1; need > int(pfPages(pf)) {
			if err := pf.EnsurePages(need); err != nil {
				applyErr = err
				return err
			}
		}
		if err := pf.WritePage(r.Page, page, r.PType); err != nil {
			applyErr = err
			return err
		}
		st.PagesApplied++
		return nil
	})
	if err != nil {
		if applyErr != nil {
			return nil, fmt.Errorf("wal: replay: %w", applyErr)
		}
		return nil, err
	}
	if err := pf.Sync(); err != nil {
		return nil, err
	}
	if err := l.reset(); err != nil {
		return nil, err
	}
	return st, nil
}

func pfPages(pf *pager.PageFile) int { return pf.Len() + 1 }

func fileSize(f File) int64 {
	type sizer interface{ Stat() (os.FileInfo, error) }
	if s, ok := f.(sizer); ok {
		if st, err := s.Stat(); err == nil {
			return st.Size()
		}
	}
	// Fall back to probing: binary-search is overkill for a log; read in
	// growing steps until a read comes back short.
	var size int64
	buf := make([]byte, 1<<16)
	for {
		n, err := f.ReadAt(buf, size)
		size += int64(n)
		if err != nil || n < len(buf) {
			return size
		}
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}
