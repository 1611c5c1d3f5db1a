// Package diskrtree keeps the R-tree of internal/rtree in a page file: the
// global index of the paper's experimental setup, where object MBRs live
// in 4096-byte pages and query cost is measured in page accesses.
//
// Only what is about disk lives here — the node and meta page formats,
// creating and reopening a tree, and the one store the shared algorithms
// run over: the pages of a pager.TxPager, fresh ones in a bulk load and
// copy-on-write ones in a mutation's Insert and Delete. Every node visit of
// a search is a buffer-pool access, so the pool's hit/miss/read counters
// measure exactly the I/O behavior a disk-backed deployment would see.
//
// A search reads a node in place: VisitNode validates the page once and
// hands each entry's rectangle and reference to a callback, the corners
// decoded straight into a slab the caller supplies, so no rtree.Node,
// rectangle slice or reference slice is built. DecodeNode, which the
// writers and offline walks use, is VisitNode into a node of its own.
//
// Page layout (little endian):
//
//	meta page:  "SDRT" | dim u16 | height u16 | size u64 | root u32
//	node page:  leaf u8 | count u16 | entries...
//	entry:      lo[d] f64 | hi[d] f64 | ref u64   (child page id or object id)
package diskrtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
)

const metaMagic = "SDRT"

// Tree is a disk-resident R-tree handle: where its pages are, plus the
// header the shared algorithms of internal/rtree work from. The header
// tracks the post-transaction state as mutations run; the index layer
// snapshots it (State/Restore) so an aborted transaction can roll it back.
type Tree struct {
	pool *pager.Pool
	meta pager.PageID
	dim  int
	cap  int // entries per node
	hdr  rtree.Header
}

// Errors.
var (
	ErrBadMeta = errors.New("diskrtree: bad meta page")
	// ErrCorruptNode flags a node page whose bytes fail structural
	// validation — a checksum-clean page can still be logically damaged,
	// so every decode is bounds-checked.
	ErrCorruptNode = errors.New("diskrtree: corrupt node page")
)

// maxDim bounds plausible dimensionality in persisted metadata.
const maxDim = 1 << 10

// Create writes a tree of the given dimensionality through tx: the meta
// page first, so it lands before the nodes, then rtree.BulkLoad of entries
// (STR packing; no entries gives the empty leaf root). As after any
// mutation, WriteMetaTx writes the header.
func Create(pool *pager.Pool, tx pager.TxPager, dim int, entries []rtree.Entry) (*Tree, error) {
	if dim < 1 || dim > maxDim {
		return nil, fmt.Errorf("diskrtree: implausible dim %d", dim)
	}
	meta, _, err := tx.Alloc(pager.PageTreeMeta)
	if err != nil {
		return nil, err
	}
	t := &Tree{pool: pool, meta: meta, dim: dim, cap: rtree.DefaultFanout(tx.PageSize(), dim)}
	if t.hdr, err = rtree.BulkLoad(txStore{tx, dim}, t.cap, entries); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a tree previously created in the pool's file, given the
// meta page id returned by Meta().
func Open(pool *pager.Pool, meta pager.PageID) (*Tree, error) {
	buf, err := pool.Get(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta)
	if string(buf[:4]) != metaMagic {
		return nil, ErrBadMeta
	}
	t := &Tree{
		pool: pool,
		meta: meta,
		dim:  int(binary.LittleEndian.Uint16(buf[4:])),
		hdr: rtree.Header{
			Height: int(binary.LittleEndian.Uint16(buf[6:])),
			Size:   int(binary.LittleEndian.Uint64(buf[8:])),
			Root:   rtree.NodeID(binary.LittleEndian.Uint32(buf[16:])),
		},
	}
	if t.dim < 1 || t.dim > maxDim || t.hdr.Height < 1 || t.hdr.Size < 0 || t.hdr.Root == rtree.NoNode {
		return nil, fmt.Errorf("%w: dim=%d height=%d size=%d root=%d",
			ErrBadMeta, t.dim, t.hdr.Height, t.hdr.Size, t.hdr.Root)
	}
	t.cap = rtree.DefaultFanout(pool.File().PageSize(), t.dim)
	return t, nil
}

func (t *Tree) encodeMeta(buf []byte) {
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint16(buf[4:], uint16(t.dim))
	binary.LittleEndian.PutUint16(buf[6:], uint16(t.hdr.Height))
	binary.LittleEndian.PutUint64(buf[8:], uint64(t.hdr.Size))
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.hdr.Root))
}

// Meta returns the meta page id (persist it to reopen the tree).
func (t *Tree) Meta() pager.PageID { return t.meta }

// Root returns the root node's page id.
func (t *Tree) Root() pager.PageID { return pager.PageID(t.hdr.Root) }

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.hdr.Size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.hdr.Height }

// State snapshots the tree's header, for transaction rollback.
func (t *Tree) State() rtree.Header { return t.hdr }

// Restore rolls the tree's header back to a captured State.
func (t *Tree) Restore(h rtree.Header) { t.hdr = h }

// --- writes through a TxPager ------------------------------------------------

// txStore is the tree's nodes as one TxPager sees them. Every modified
// node is copy-on-written — re-encoded into a fresh page and its old page
// freed — so the path from the old root stays byte-identical for searches
// pinned to the pre-transaction snapshot. Pages the transaction itself
// allocated are rewritten in place (tx.Owned), keeping the page churn of
// one insert proportional to the tree height; a bulk load only ever
// allocates.
type txStore struct {
	tx  pager.TxPager
	dim int
}

var _ rtree.Store = txStore{}

func (s txStore) Read(id rtree.NodeID) (*rtree.Node, error) {
	buf, err := s.tx.Read(pager.PageID(id))
	if err != nil {
		return nil, err
	}
	n, err := DecodeNode(buf, s.dim)
	if err != nil {
		return nil, pageError(pager.PageID(id), err)
	}
	return n, nil
}

func (s txStore) Write(old rtree.NodeID, n *rtree.Node) (rtree.NodeID, error) {
	if old != rtree.NoNode && s.tx.Owned(pager.PageID(old)) {
		buf, err := s.tx.Stage(pager.PageID(old), pager.PageTreeNode)
		if err != nil {
			return rtree.NoNode, err
		}
		return old, EncodeNode(buf, s.dim, n)
	}
	id, buf, err := s.tx.Alloc(pager.PageTreeNode)
	if err != nil {
		return rtree.NoNode, err
	}
	if err := EncodeNode(buf, s.dim, n); err != nil {
		return rtree.NoNode, err
	}
	if old != rtree.NoNode {
		s.tx.Free(pager.PageID(old))
	}
	return rtree.NodeID(id), nil
}

func (s txStore) Free(id rtree.NodeID) { s.tx.Free(pager.PageID(id)) }

// InsertTx adds one entry inside the surrounding transaction.
func (t *Tree) InsertTx(tx pager.TxPager, e rtree.Entry) error {
	if e.Rect.Dim() != t.dim {
		return fmt.Errorf("diskrtree: entry dim %d != tree dim %d", e.Rect.Dim(), t.dim)
	}
	return rtree.Insert(txStore{tx, t.dim}, &t.hdr, t.cap, e)
}

// DeleteTx removes the entry with e.ID whose stored rectangle equals
// e.Rect inside the surrounding transaction, reporting whether it was
// found.
func (t *Tree) DeleteTx(tx pager.TxPager, e rtree.Entry) (bool, error) {
	if e.Rect.Dim() != t.dim {
		return false, fmt.Errorf("diskrtree: entry dim %d != tree dim %d", e.Rect.Dim(), t.dim)
	}
	return rtree.Delete(txStore{tx, t.dim}, &t.hdr, t.cap, e)
}

// WriteMetaTx stages the meta page with the tree's current header — the
// last step of a mutating transaction, before the index commits.
func (t *Tree) WriteMetaTx(tx pager.TxPager) error {
	buf, err := tx.Stage(t.meta, pager.PageTreeMeta)
	if err != nil {
		return err
	}
	t.encodeMeta(buf)
	return nil
}

// --- node (de)serialization ------------------------------------------------

// EncodeNode serializes a node into a page payload buffer — the inverse
// of DecodeNode.
func EncodeNode(buf []byte, dim int, n *rtree.Node) error {
	entry := 16*dim + 8
	if 3+len(n.Rects)*entry > len(buf) {
		return fmt.Errorf("diskrtree: node overflow (%d entries of %d bytes > %d-byte page)",
			len(n.Rects), entry, len(buf))
	}
	if n.Leaf {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.Rects)))
	off := 3
	for i, r := range n.Rects {
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(r.Lo[j]))
			off += 8
		}
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(r.Hi[j]))
			off += 8
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(n.Refs[i]))
		off += 8
	}
	return nil
}

// ReadNodeVia materializes the node stored at the given page, reading
// through r: the shared pool, or a per-search pager.Lease so the page
// access — one hit or one physical read — is attributed to exactly one
// search even under concurrency.
func (t *Tree) ReadNodeVia(r pager.Reader, page pager.PageID) (*rtree.Node, error) {
	buf, err := r.Get(page)
	if err != nil {
		return nil, err
	}
	n, derr := DecodeNode(buf, t.dim)
	r.Unpin(page)
	if derr != nil {
		return nil, pageError(page, derr)
	}
	return n, nil
}

// VisitNodeVia is ReadNodeVia without the node: the page at page is read
// through r and handed to VisitNode, its corners decoded into the slab
// corners returns. The page is pinned while visit runs.
func (t *Tree) VisitNodeVia(r pager.Reader, page pager.PageID, corners func(n int) []float64, visit func(leaf bool, rect geom.Rect, ref int64)) error {
	buf, err := r.Get(page)
	if err != nil {
		return err
	}
	derr := VisitNode(buf, t.dim, corners, visit)
	r.Unpin(page)
	if derr != nil {
		return pageError(page, derr)
	}
	return nil
}

// DecodeNode decodes a node page image with dimensionality dim into a node
// of its own: VisitNode with a fresh corner slab, the entries appended as
// they are visited.
func DecodeNode(buf []byte, dim int) (*rtree.Node, error) {
	n := &rtree.Node{}
	err := VisitNode(buf, dim, func(size int) []float64 {
		count := size / (2 * dim)
		n.Rects = make([]geom.Rect, 0, count)
		n.Refs = make([]int64, 0, count)
		return make([]float64, size)
	}, func(leaf bool, r geom.Rect, ref int64) {
		n.Rects = append(n.Rects, r)
		n.Refs = append(n.Refs, ref)
	})
	if err != nil {
		return nil, err
	}
	n.Leaf = buf[0] == 1
	return n, nil
}

// VisitNode is the tree's single source of decode truth: it validates a
// node page image with dimensionality dim and then calls visit once per
// entry, in storage order, with the entry's rectangle and reference (child
// page id, or record pointer in a leaf). The entry count is validated
// against the page size before any entry is touched, so malformed input
// yields an error wrapping ErrCorruptNode — never a panic — and visit is
// not called. The corners are decoded straight into the slab corners(n)
// returns, of n = 2·dim·count floats, which the rectangles keep: they stay
// valid for as long as the caller keeps that slab, and each corner is
// capacity-limited so an append to one cannot write into its neighbour.
// DecodeNode, ReadNodeVia and VisitNodeVia all route through it, and
// FuzzNodeDecode exercises it.
//
//nnc:hotpath
func VisitNode(buf []byte, dim int, corners func(n int) []float64, visit func(leaf bool, r geom.Rect, ref int64)) error {
	leaf, count, err := nodeHeader(buf, dim)
	if err != nil {
		return err
	}
	coords := corners(2 * dim * count)
	off := 3
	for i := 0; i < count; i++ {
		c := coords[:2*dim]
		for j := range c {
			c[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		coords = coords[2*dim:]
		ref := int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		visit(leaf, geom.Rect{Lo: c[:dim:dim], Hi: c[dim : 2*dim : 2*dim]}, ref)
	}
	return nil
}

// nodeHeader validates a node page image's header against dim and the
// page's length, and returns its leaf flag and entry count.
//
//nnc:coldpath allocates only to format the error of a damaged page; a valid page returns without allocating
func nodeHeader(buf []byte, dim int) (leaf bool, count int, err error) {
	if dim < 1 || dim > maxDim {
		return false, 0, fmt.Errorf("%w: implausible dim %d", ErrCorruptNode, dim)
	}
	if len(buf) < 3 {
		return false, 0, fmt.Errorf("%w: %d-byte page too short", ErrCorruptNode, len(buf))
	}
	if buf[0] > 1 {
		return false, 0, fmt.Errorf("%w: bad leaf flag %d", ErrCorruptNode, buf[0])
	}
	leaf = buf[0] == 1
	count = int(binary.LittleEndian.Uint16(buf[1:]))
	if count < 1 && !leaf {
		// Internal nodes always have at least one child. A leaf with zero
		// entries is legal in exactly one place — the root of an empty
		// mutable tree — and decodes to an entry-less node.
		return false, 0, fmt.Errorf("%w: empty node", ErrCorruptNode)
	}
	entry := 16*dim + 8
	if 3+count*entry > len(buf) {
		return false, 0, fmt.Errorf("%w: %d entries of %d bytes overflow %d-byte page",
			ErrCorruptNode, count, entry, len(buf))
	}
	return leaf, count, nil
}

// pageError names the page a read or decode failed on.
//
//nnc:coldpath error formatting for a failed page read or a damaged page
func pageError(page pager.PageID, err error) error {
	return fmt.Errorf("diskrtree: page %d: %w", page, err)
}
