package diskstore

// Appends through a pager.TxPager. Under a build's Direct every page is the
// build's own and is written in place; under a mutation's transaction
// nothing touches the WAL, the cache or the file until the transaction
// commits, and two disciplines make concurrent readers safe without locks:
//
//   - Data pages are copy-on-write: extending the partially-filled tail
//     page re-encodes it into a fresh page and frees the old one, so a
//     reader pinned to the pre-transaction snapshot keeps reading the
//     old page's bytes. (In-place extension would be value-identical for
//     the bytes the old snapshot can reach, but the commit-time cache
//     install copies the whole page — a write the race detector rightly
//     flags.)
//
//   - The page directory is persistent-in-memory: the only slot an
//     append rewrites is the tail page's, which the Store holds by value
//     outside the dir slice, and the slice itself only grows (shared
//     backing stays valid for clones, which never index past their own
//     length). A Clone taken at snapshot install is therefore immutable
//     for free, and no append copies the directory.
//
// Record pointers are logical stream offsets and the stream only grows,
// so a Ptr is valid forever — deleted records simply become unreferenced
// garbage between live ones (reclaimed by `nnc rewrite`). That
// immutability is what lets a reader pinned to an older epoch resolve its
// leaves' pointers while the writer appends, with no invalidation protocol.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// Clone returns an immutable snapshot view of the store for concurrent
// readers. Shallow copy is sufficient: the writer never overwrites a dir
// slot this clone can see, and tail/count only grow on the writer's copy.
func (s *Store) Clone() *Store {
	c := *s
	return &c
}

// State captures the store's mutable header for transaction rollback.
type State struct {
	Tail      uint64
	Count     int
	Dir       []pager.PageID
	Last      pager.PageID
	DirPages  []pager.PageID
	DirHead   pager.PageID
	DirtyFrom int
}

// State snapshots the mutable fields.
func (s *Store) State() State {
	return State{
		Tail: s.tail, Count: s.count,
		Dir: s.dir, Last: s.last, DirPages: s.dirPages, DirHead: s.dirHead, DirtyFrom: s.dirtyFrom,
	}
}

// Restore rolls the mutable fields back to a captured State.
func (s *Store) Restore(st State) {
	s.tail, s.count = st.Tail, st.Count
	s.dir, s.last, s.dirPages, s.dirHead, s.dirtyFrom = st.Dir, st.Last, st.DirPages, st.DirHead, st.DirtyFrom
}

// DataPages returns the ids of the store's data pages in stream order —
// the reachability set fsck walks.
func (s *Store) DataPages() []pager.PageID {
	out := make([]pager.PageID, s.pages())
	for i := range out {
		out[i] = s.pageAt(i)
	}
	return out
}

// DirPages returns the ids of the directory chain pages (none for a heap
// from before the directory that no append has touched yet).
func (s *Store) DirPages() []pager.PageID { return slices.Clone(s.dirPages) }

// Tail returns the logical stream length in bytes.
func (s *Store) Tail() uint64 { return s.tail }

// AppendTx serializes the object into the staged page set of the
// surrounding transaction and returns its record pointer. The partially
// filled tail page, if extended, is copy-on-written unless tx owns it;
// fresh data pages come from the transaction's allocator. The record is
// encoded into the store's kept buffer, which the staged pages copy.
func (s *Store) AppendTx(tx pager.TxPager, o *uncertain.Object) (Ptr, error) {
	s.enc = encode(s.enc, o)
	rec := s.enc
	ptr := Ptr(s.tail)
	ps := uint64(tx.PageSize())
	off := s.tail
	data := rec
	for len(data) > 0 {
		idx := int(off / ps)
		inPage := int(off % ps)
		var buf []byte
		switch {
		case idx == s.pages()-1 && inPage > 0:
			// Extending the partially filled tail page: copy-on-write
			// unless this transaction already owns it.
			old := s.last
			if tx.Owned(old) {
				b, err := tx.Stage(old, pager.PageStoreData)
				if err != nil {
					return 0, err
				}
				buf = b
			} else {
				id, b, err := tx.Alloc(pager.PageStoreData)
				if err != nil {
					return 0, err
				}
				prev, err := tx.Read(old)
				if err != nil {
					return 0, err
				}
				copy(b[:inPage], prev[:inPage])
				s.last = id
				s.dirtyFrom = min(s.dirtyFrom, idx)
				tx.Free(old)
				buf = b
			}
		case idx < s.pages():
			// A write at offset 0 of an existing page, or anywhere in one
			// before the last, would mean the tail sits before the last
			// page's end — impossible while tail and the page count agree.
			return 0, fmt.Errorf("diskstore: append offset %d inside committed page %d", off, idx)
		default:
			id, b, err := tx.Alloc(pager.PageStoreData)
			if err != nil {
				return 0, err
			}
			s.addPage(id)
			s.dirtyFrom = min(s.dirtyFrom, idx)
			buf = b
		}
		n := copy(buf[inPage:], data)
		data = data[n:]
		off += uint64(n)
	}
	s.tail = off
	s.count++
	if err := s.syncDirTx(tx); err != nil {
		return 0, err
	}
	return ptr, nil
}

// syncDirTx re-persists every directory chain page covering entries at or
// past dirtyFrom, allocating chain pages as the directory grows. Chain
// pages are updated in place (no copy-on-write): readers never touch the
// directory mid-search — they carry the decoded dir slice in their
// snapshot's store clone.
func (s *Store) syncDirTx(tx pager.TxPager) error {
	n := s.pages()
	if s.dirtyFrom > n {
		return nil
	}
	per := s.dirPerPage()
	needPages := (n + per - 1) / per
	for len(s.dirPages) < needPages {
		id, _, err := tx.Alloc(pager.PageStoreDir)
		if err != nil {
			return err
		}
		if len(s.dirPages) == 0 {
			s.dirHead = id
		} else {
			// Link from the previous tail.
			prev := s.dirPages[len(s.dirPages)-1]
			pb, err := tx.Stage(prev, pager.PageStoreDir)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(pb[2:], uint32(id))
		}
		s.dirPages = append(s.dirPages, id)
	}
	for p := s.dirtyFrom / per; p < needPages; p++ {
		buf, err := tx.Stage(s.dirPages[p], pager.PageStoreDir)
		if err != nil {
			return err
		}
		lo := p * per
		hi := min(lo+per, n)
		binary.LittleEndian.PutUint16(buf[0:], uint16(hi-lo))
		var next pager.PageID
		if p+1 < len(s.dirPages) {
			next = s.dirPages[p+1]
		}
		binary.LittleEndian.PutUint32(buf[2:], uint32(next))
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint32(buf[6+4*(i-lo):], uint32(s.pageAt(i)))
		}
	}
	s.dirtyFrom = n + 1
	return nil
}

// WriteMetaTx stages the store's meta page with its current header.
func (s *Store) WriteMetaTx(tx pager.TxPager) error {
	buf, err := tx.Stage(s.meta, pager.PageStoreMeta)
	if err != nil {
		return err
	}
	s.encodeMeta(buf)
	return nil
}
