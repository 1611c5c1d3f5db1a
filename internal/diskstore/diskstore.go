// Package diskstore stores serialized multi-instance objects in a page
// file: the object heap of the disk-resident index. Records are appended
// to a logical byte stream laid out over data pages that a page directory
// lists in stream order, and addressed by their stream offset, so a record
// fetch touches exactly the ⌈len/pageSize⌉ pages holding it — the unit the
// paper's disk-bound experiments count. Every write goes through a
// pager.TxPager: a bulk build's and a mutation's are the same code. A read
// copies a record's bytes into a buffer its caller keeps (ReadVia; a search
// session keeps one for all its records) and decodes them into one slab the
// object keeps: probabilities, then coordinates, as the record lays them
// out.
//
// Layouts (little endian):
//
//	record:    id i64 | m u32 | d u32 | probs m×f64 | coords (m·d)×f64 | label len u16 | label
//	meta:      "SDST" | 0 u32 | data pages u32 | tail u64 | records u32 | directory head u32
//	directory: count u16 | next u32 | data page ids u32 × count
//
// Meta bytes 4–8 are written 0. A heap written before the store always kept
// a directory has none (head 0) and lies in the contiguous pages starting
// at the id those bytes hold; Open lists them, and the first append
// persists that directory.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

const metaMagic = "SDST"

// Ptr addresses a record by its logical stream offset.
type Ptr uint64

// Store is an append-only object heap read through a buffer pool and
// written through a pager.TxPager (AppendTx, WriteMetaTx). Its page
// directory lets heap growth interleave with R-tree page allocation.
//
// A Store handle is single-writer. Readers run against an immutable
// Clone taken at snapshot-install time: the writer never mutates a dir
// slot a clone can see (tail-page rewrites copy the directory first),
// so concurrent ReadVia through a clone is race-free by construction.
type Store struct {
	pool  *pager.Pool
	meta  pager.PageID
	tail  uint64 // logical length in bytes
	count int    // number of records ever appended (deletes don't decrement)

	// dir maps data-page index to page id. dirPages is the on-disk chain
	// holding it; dirtyFrom is the first directory index whose persisted
	// form is stale (len(dir)+1 when none).
	dir       []pager.PageID
	dirPages  []pager.PageID
	dirHead   pager.PageID
	dirtyFrom int
}

// ErrBadMeta is returned by Open on a non-store meta page.
var ErrBadMeta = errors.New("diskstore: bad meta page")

// ErrCorrupt flags a record whose bytes fail structural validation —
// checksum-clean pages can still carry a logically damaged stream, so every
// decode is bounds-checked and errors.Is(err, ErrCorrupt) identifies it.
var ErrCorrupt = errors.New("diskstore: corrupt record")

// Structural plausibility bounds for decoded records. Anything beyond these
// is treated as corruption rather than allocated.
const (
	maxInstances = 1 << 24
	maxDim       = 1 << 10
)

// Create allocates an empty store's meta page through tx; the store reads
// through pool. As after any append, WriteMetaTx writes the header.
func Create(pool *pager.Pool, tx pager.TxPager) (*Store, error) {
	meta, _, err := tx.Alloc(pager.PageStoreMeta)
	if err != nil {
		return nil, err
	}
	return &Store{pool: pool, meta: meta}, nil
}

// Open attaches to an existing store given its meta page id.
func Open(pool *pager.Pool, meta pager.PageID) (*Store, error) {
	buf, err := pool.Get(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta)
	if string(buf[:4]) != metaMagic {
		return nil, ErrBadMeta
	}
	first := pager.PageID(binary.LittleEndian.Uint32(buf[4:]))
	pages := int(binary.LittleEndian.Uint32(buf[8:]))
	s := &Store{
		pool:    pool,
		meta:    meta,
		tail:    binary.LittleEndian.Uint64(buf[12:]),
		count:   int(binary.LittleEndian.Uint32(buf[20:])),
		dirHead: pager.PageID(binary.LittleEndian.Uint32(buf[24:])),
	}
	ps := uint64(pool.File().PageSize())
	if s.tail > uint64(pages)*ps || (pages > 0 && first == 0 && s.dirHead == 0) || s.count < 0 {
		return nil, fmt.Errorf("%w: tail %d beyond %d data pages", ErrBadMeta, s.tail, pages)
	}
	if s.dirHead == 0 {
		// A heap from before the directory: pages [first, first+pages),
		// listed here and persisted by the first append.
		for i := range pages {
			s.dir = append(s.dir, first+pager.PageID(i))
		}
		return s, nil
	}
	if err := s.readDir(pages); err != nil {
		return nil, err
	}
	s.dirtyFrom = pages + 1
	return s, nil
}

// dirPerPage is the directory entries one chain page holds.
func (s *Store) dirPerPage() int { return (s.pool.File().PageSize() - 6) / 4 }

// readDir walks the on-disk directory chain into s.dir/s.dirPages and
// checks it lists the meta's count of data pages.
func (s *Store) readDir(pages int) error {
	per := s.dirPerPage()
	seen := make(map[pager.PageID]bool)
	next := s.dirHead
	for next != 0 {
		if seen[next] {
			return fmt.Errorf("%w: directory chain loops at page %d", ErrBadMeta, next)
		}
		seen[next] = true
		buf, err := s.pool.Get(next)
		if err != nil {
			return err
		}
		count := int(binary.LittleEndian.Uint16(buf[0:]))
		link := pager.PageID(binary.LittleEndian.Uint32(buf[2:]))
		if count > per {
			s.pool.Unpin(next)
			return fmt.Errorf("%w: directory page %d declares %d entries (max %d)", ErrBadMeta, next, count, per)
		}
		for i := 0; i < count; i++ {
			id := pager.PageID(binary.LittleEndian.Uint32(buf[6+4*i:]))
			if id == 0 {
				s.pool.Unpin(next)
				return fmt.Errorf("%w: directory page %d holds invalid page id", ErrBadMeta, next)
			}
			s.dir = append(s.dir, id)
		}
		s.pool.Unpin(next)
		s.dirPages = append(s.dirPages, next)
		next = link
	}
	if len(s.dir) != pages {
		return fmt.Errorf("%w: directory holds %d pages, meta declares %d", ErrBadMeta, len(s.dir), pages)
	}
	return nil
}

func (s *Store) encodeMeta(buf []byte) {
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], 0)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(s.dir)))
	binary.LittleEndian.PutUint64(buf[12:], s.tail)
	binary.LittleEndian.PutUint32(buf[20:], uint32(s.count))
	binary.LittleEndian.PutUint32(buf[24:], uint32(s.dirHead))
}

// Meta returns the store's meta page id.
func (s *Store) Meta() pager.PageID { return s.meta }

// Len returns the number of stored records.
func (s *Store) Len() int { return s.count }

// Read fetches and decodes the record at ptr, counting page accesses on
// the shared pool.
func (s *Store) Read(ptr Ptr) (*uncertain.Object, error) {
	return s.ReadVia(s.pool, ptr, nil)
}

// ReadVia is Read fetching pages through an arbitrary pager.Reader —
// typically a per-search pager.Lease, so the record's page accesses are
// attributed to exactly one search even under concurrency — and reading
// the record's bytes into *buf, which is grown when the record is longer
// and kept by the caller for the next record; a nil buf reads into a
// buffer of this call's own. The object decoded from the bytes shares
// nothing with the buffer. The store's layout fields are immutable after
// build, so any number of ReadVia calls, each with its own buffer, may run
// concurrently.
func (s *Store) ReadVia(r pager.Reader, ptr Ptr, buf *[]byte) (*uncertain.Object, error) {
	var hdr [16]byte
	if err := s.readAtVia(r, uint64(ptr), hdr[:]); err != nil {
		return nil, err
	}
	m := int(binary.LittleEndian.Uint32(hdr[8:]))
	d := int(binary.LittleEndian.Uint32(hdr[12:]))
	if m <= 0 || d <= 0 || m > maxInstances || d > maxDim {
		return nil, fmt.Errorf("%w at %d (m=%d d=%d)", ErrCorrupt, ptr, m, d)
	}
	need := 16 + 8*m + 8*m*d + 2
	if uint64(ptr)+uint64(need) > s.tail {
		return nil, fmt.Errorf("%w at %d: %d-byte body overruns stream tail %d", ErrCorrupt, ptr, need, s.tail)
	}
	var rec []byte
	if buf != nil {
		rec = grow((*buf)[:0], need)
	} else {
		rec = make([]byte, need)
	}
	copy(rec, hdr[:])
	if err := s.readAtVia(r, uint64(ptr)+16, rec[16:]); err != nil {
		return nil, err
	}
	if labelLen := int(binary.LittleEndian.Uint16(rec[need-2:])); labelLen > 0 {
		if uint64(ptr)+uint64(need)+uint64(labelLen) > s.tail {
			return nil, fmt.Errorf("%w at %d: label overruns stream tail %d", ErrCorrupt, ptr, s.tail)
		}
		rec = grow(rec, need+labelLen)
		if err := s.readAtVia(r, uint64(ptr)+uint64(need), rec[need:]); err != nil {
			return nil, err
		}
	}
	if buf != nil {
		*buf = rec
	}
	o, _, err := DecodeRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("diskstore: record at %d: %w", ptr, err)
	}
	return o, nil
}

// grow returns b resized to n bytes, keeping its first len(b) bytes and
// reusing its capacity when it is large enough.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return append(b[:cap(b)], make([]byte, n-cap(b))...)[:n]
	}
	return b[:n]
}

// DecodeRecord decodes one serialized record from the front of data,
// returning the object and the number of bytes consumed. Every length field
// is validated against len(data) before any allocation, so arbitrary
// malformed input yields an error wrapping ErrCorrupt — never a panic and
// never an attacker-sized allocation. It is the store's single source of
// decode truth (ReadVia routes through it) and the surface FuzzRecordDecode
// exercises.
func DecodeRecord(data []byte) (*uncertain.Object, int, error) {
	if len(data) < 16 {
		return nil, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	id := int(int64(binary.LittleEndian.Uint64(data[:8])))
	m := int(binary.LittleEndian.Uint32(data[8:]))
	d := int(binary.LittleEndian.Uint32(data[12:]))
	if m <= 0 || d <= 0 || m > maxInstances || d > maxDim {
		return nil, 0, fmt.Errorf("%w: implausible shape m=%d d=%d", ErrCorrupt, m, d)
	}
	need := 16 + 8*m + 8*m*d + 2
	if need > len(data) || need < 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes needed, %d present", ErrCorrupt, need, len(data))
	}
	labelLen := int(binary.LittleEndian.Uint16(data[need-2:]))
	if need+labelLen > len(data) {
		return nil, 0, fmt.Errorf("%w: %d-byte label overruns record", ErrCorrupt, labelLen)
	}
	// One slab, laid out as the record is and handed to the object as it
	// is: the record holds the probabilities already normalized, and
	// dividing them by their sum again (≈1, rarely exactly 1) would make
	// the disk backend decide dominance on other floats than were stored.
	floats := make([]float64, m+m*d)
	for i := range floats {
		floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16+8*i:]))
	}
	o, err := uncertain.FromSlabs(id, d, floats[m:], floats[:m:m])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if labelLen > 0 {
		o.SetLabel(string(data[need : need+labelLen]))
	}
	return o, need + labelLen, nil
}

// EncodedLen returns the exact on-stream size of o's record.
func EncodedLen(o *uncertain.Object) int {
	return 16 + 8*o.Len() + 8*o.Len()*o.Dim() + 2 + len(o.Label())
}

// Scan invokes fn for every record in append order with its pointer. It is
// the logical-content walk behind file rewriting: a rebuild reads records
// through Scan and re-appends them to a fresh store, independent of the
// physical page geometry they were originally laid out in.
func (s *Store) Scan(fn func(Ptr, *uncertain.Object) error) error {
	off := uint64(0)
	for i := 0; i < s.count; i++ {
		o, err := s.Read(Ptr(off))
		if err != nil {
			return fmt.Errorf("diskstore: scan record %d: %w", i, err)
		}
		if err := fn(Ptr(off), o); err != nil {
			return err
		}
		off += uint64(EncodedLen(o))
	}
	return nil
}

func encode(o *uncertain.Object) []byte {
	m, d := o.Len(), o.Dim()
	label := o.Label()
	rec := make([]byte, 16+8*m+8*m*d+2+len(label))
	binary.LittleEndian.PutUint64(rec, uint64(int64(o.ID())))
	binary.LittleEndian.PutUint32(rec[8:], uint32(m))
	binary.LittleEndian.PutUint32(rec[12:], uint32(d))
	off := 16
	for i := 0; i < m; i++ {
		binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(o.Prob(i)))
		off += 8
	}
	for i := 0; i < m; i++ {
		p := o.Instance(i)
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(p[j]))
			off += 8
		}
	}
	binary.LittleEndian.PutUint16(rec[off:], uint16(len(label)))
	off += 2
	copy(rec[off:], label)
	return rec
}

// page returns the page id holding logical offset off and the offset
// within it.
func (s *Store) page(off uint64) (pager.PageID, int, error) {
	ps := uint64(s.pool.File().PageSize())
	idx := int(off / ps)
	if idx >= len(s.dir) {
		return pager.InvalidPage, 0, fmt.Errorf("diskstore: offset %d beyond data area", off)
	}
	return s.dir[idx], int(off % ps), nil
}

func (s *Store) readAtVia(r pager.Reader, off uint64, data []byte) error {
	for len(data) > 0 {
		id, inPage, err := s.page(off)
		if err != nil {
			return err
		}
		buf, err := r.Get(id)
		if err != nil {
			return err
		}
		n := copy(data, buf[inPage:])
		r.Unpin(id)
		data = data[n:]
		off += uint64(n)
	}
	return nil
}
