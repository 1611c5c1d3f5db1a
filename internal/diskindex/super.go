package diskindex

// Super page, format v2. The v1 layout (magic, metadata page ids, dense
// id span) occupied bytes [0, 20) and left the rest of the page zero, so
// the mutable-index fields appended here decode as benign zero values on
// every pre-existing file: epoch 0 and an empty free list.
//
//	0  "SDIX"
//	4  store meta page u32
//	8  tree meta page  u32
//	12 reserved        8 bytes, written zero, ignored on read
//	20 epoch           u64   (commit counter; 0 = never mutated)
//	28 reserved        12 bytes, written zero, ignored on read
//	40 free count      u32
//	44 free page ids   u32 × free count
//
// Bytes 12–20 held the largest object ID plus one, which sized a search's
// cache table until searches came to hold each object's cache by handle.
// Older readers take the zero written here for "span unknown".
//
// Bytes 28–40 held the head, tail and tail-entry count of a tombstone log
// (a chain of PageMapLog pages listing deleted record pointers) until the
// tree's leaves became the only record of what is live. A delete always
// removed the leaf entry in the same transaction as it appended the
// tombstone, so a file that carries a chain opens to the right live set
// with the bytes ignored; its chain pages are unreferenced from the first
// commit on and `nnc rewrite` drops them.
//
// The free list caps at the page's remaining capacity; a transaction
// whose free set would overflow drops the excess ids (they leak until
// `nnc rewrite` compacts the file), preferring a bounded leak over an
// unbounded on-disk structure for what is, by construction, a short list
// between checkpoints.

import (
	"encoding/binary"
	"fmt"

	"spatialdom/internal/pager"
)

// superFixed is the byte offset where the free list begins.
const superFixed = 44

// SuperBlock is the decoded super page.
type SuperBlock struct {
	StoreMeta pager.PageID
	TreeMeta  pager.PageID
	Epoch     uint64
	Free      []pager.PageID
}

// DecodeSuper validates and decodes a full super-page image. Malformed
// input yields an error wrapping ErrBadSuper — never a panic.
func DecodeSuper(buf []byte) (SuperBlock, error) {
	var sb SuperBlock
	if len(buf) < superFixed {
		return sb, fmt.Errorf("%w: %d-byte page too short", ErrBadSuper, len(buf))
	}
	if string(buf[:4]) != superMagic {
		return sb, ErrBadSuper
	}
	sb.StoreMeta = pager.PageID(binary.LittleEndian.Uint32(buf[4:]))
	sb.TreeMeta = pager.PageID(binary.LittleEndian.Uint32(buf[8:]))
	if sb.StoreMeta == 0 || sb.TreeMeta == 0 || sb.StoreMeta == sb.TreeMeta {
		return sb, fmt.Errorf("%w: metadata pages store=%d tree=%d", ErrBadSuper, sb.StoreMeta, sb.TreeMeta)
	}
	sb.Epoch = binary.LittleEndian.Uint64(buf[20:])
	nfree := int(binary.LittleEndian.Uint32(buf[40:]))
	if nfree > (len(buf)-superFixed)/4 {
		return sb, fmt.Errorf("%w: free list of %d overflows page", ErrBadSuper, nfree)
	}
	if nfree > 0 {
		sb.Free = make([]pager.PageID, nfree)
		for i := range sb.Free {
			id := pager.PageID(binary.LittleEndian.Uint32(buf[superFixed+4*i:]))
			if id <= SuperPageID {
				return sb, fmt.Errorf("%w: free list holds reserved page %d", ErrBadSuper, id)
			}
			sb.Free[i] = id
		}
	}
	return sb, nil
}

// EncodeSuper serializes sb into a super-page image, zeroing the tail.
// Free ids beyond the page's capacity are dropped.
func EncodeSuper(buf []byte, sb SuperBlock) {
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, superMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(sb.StoreMeta))
	binary.LittleEndian.PutUint32(buf[8:], uint32(sb.TreeMeta))
	binary.LittleEndian.PutUint64(buf[20:], sb.Epoch)
	free := sb.Free
	if cap := (len(buf) - superFixed) / 4; len(free) > cap {
		free = free[:cap]
	}
	binary.LittleEndian.PutUint32(buf[40:], uint32(len(free)))
	for i, id := range free {
		binary.LittleEndian.PutUint32(buf[superFixed+4*i:], uint32(id))
	}
}
