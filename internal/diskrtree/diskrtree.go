// Package diskrtree implements a disk-resident, read-mostly R-tree over a
// page file: the global index of the paper's experimental setup, where
// object MBRs live in 4096-byte pages and query cost is measured in page
// accesses.
//
// The tree is bulk-loaded once with STR packing (one node per page) and
// then searched through a buffer pool; every node visit is a pool access,
// so the pool's hit/miss/read counters measure exactly the I/O behavior a
// disk-backed deployment would see.
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

// Entry is a leaf payload: an MBR plus an opaque non-negative object id.
type Entry struct {
	Rect geom.Rect
	ID   int64
}

// Node is a materialized node. Leaf nodes carry Entries; internal nodes
// carry child page ids with their MBRs.
type Node struct {
	Leaf     bool
	Rects    []geom.Rect
	Children []pager.PageID // internal nodes
	IDs      []int64        // leaf nodes
}

// Tree is a disk-resident R-tree handle.
type Tree struct {
	pool   *pager.Pool
	meta   pager.PageID
	root   pager.PageID
	dim    int
	height int
	size   int
	cap    int // entries per node
}

// Errors.
var (
	ErrNoEntries = errors.New("diskrtree: no entries")
	ErrBadMeta   = errors.New("diskrtree: bad meta page")
	// ErrCorruptNode flags a node page whose bytes fail structural
	// validation — a checksum-clean page can still be logically damaged,
	// so every decode is bounds-checked.
	ErrCorruptNode = errors.New("diskrtree: corrupt node page")
)

// maxDim bounds plausible dimensionality in persisted metadata.
const maxDim = 1 << 10

// Capacity returns the per-node entry capacity for a page size and
// dimensionality.
func Capacity(pageSize, dim int) int {
	c := (pageSize - 3) / (16*dim + 8)
	if c < 2 {
		c = 2
	}
	return c
}

// Build bulk-loads a tree from entries (STR packing), writing nodes to
// fresh pages of the pool's file and a meta page last. The entries slice
// is reordered in place.
func Build(pool *pager.Pool, entries []Entry) (*Tree, error) {
	if len(entries) == 0 {
		return nil, ErrNoEntries
	}
	dim := entries[0].Rect.Dim()
	t := &Tree{
		pool: pool,
		dim:  dim,
		size: len(entries),
		cap:  Capacity(pool.File().PageSize(), dim),
	}
	// Meta page first so reopening can find it at a fixed position: the
	// first page the tree allocates.
	metaID, metaBuf, err := pool.Allocate(pager.PageTreeMeta)
	if err != nil {
		return nil, err
	}
	t.meta = metaID
	pool.Unpin(metaID)

	leaves, err := t.packLeaves(entries)
	if err != nil {
		return nil, err
	}
	t.height = 1
	level := leaves
	for len(level) > 1 {
		level, err = t.packInternal(level)
		if err != nil {
			return nil, err
		}
		t.height++
	}
	t.root = level[0].page

	// Write the meta page.
	metaBuf, err = pool.Get(metaID)
	if err != nil {
		return nil, err
	}
	copy(metaBuf, metaMagic)
	binary.LittleEndian.PutUint16(metaBuf[4:], uint16(t.dim))
	binary.LittleEndian.PutUint16(metaBuf[6:], uint16(t.height))
	binary.LittleEndian.PutUint64(metaBuf[8:], uint64(t.size))
	binary.LittleEndian.PutUint32(metaBuf[16:], uint32(t.root))
	pool.MarkDirty(metaID)
	pool.Unpin(metaID)
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a tree previously built in the pool's file, given the
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
		pool:   pool,
		meta:   meta,
		dim:    int(binary.LittleEndian.Uint16(buf[4:])),
		height: int(binary.LittleEndian.Uint16(buf[6:])),
		size:   int(binary.LittleEndian.Uint64(buf[8:])),
		root:   pager.PageID(binary.LittleEndian.Uint32(buf[16:])),
	}
	if t.dim < 1 || t.dim > maxDim || t.height < 1 || t.size < 0 || t.root == 0 {
		return nil, fmt.Errorf("%w: dim=%d height=%d size=%d root=%d",
			ErrBadMeta, t.dim, t.height, t.size, t.root)
	}
	t.cap = Capacity(pool.File().PageSize(), t.dim)
	return t, nil
}

// Meta returns the meta page id (persist it to reopen the tree).
func (t *Tree) Meta() pager.PageID { return t.meta }

// Root returns the root node's page id.
func (t *Tree) Root() pager.PageID { return t.root }

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Capacity returns entries per node.
func (t *Tree) NodeCapacity() int { return t.cap }

// --- build helpers -------------------------------------------------------

type builtNode struct {
	page pager.PageID
	rect geom.Rect
}

func (t *Tree) packLeaves(entries []Entry) ([]builtNode, error) {
	all := make([]geom.Rect, len(entries))
	for i, e := range entries {
		all[i] = e.Rect
	}
	idx := rtree.STROrder(all, t.cap)
	var out []builtNode
	for start := 0; start < len(idx); start += t.cap {
		end := start + t.cap
		if end > len(idx) {
			end = len(idx)
		}
		rects := make([]geom.Rect, 0, end-start)
		ids := make([]int64, 0, end-start)
		for _, j := range idx[start:end] {
			rects = append(rects, entries[j].Rect)
			ids = append(ids, entries[j].ID)
		}
		page, err := t.writeNode(true, rects, nil, ids)
		if err != nil {
			return nil, err
		}
		out = append(out, builtNode{page: page, rect: unionAll(rects)})
	}
	return out, nil
}

func (t *Tree) packInternal(children []builtNode) ([]builtNode, error) {
	all := make([]geom.Rect, len(children))
	for i, c := range children {
		all[i] = c.rect
	}
	idx := rtree.STROrder(all, t.cap)
	var out []builtNode
	for start := 0; start < len(idx); start += t.cap {
		end := start + t.cap
		if end > len(idx) {
			end = len(idx)
		}
		rects := make([]geom.Rect, 0, end-start)
		kids := make([]pager.PageID, 0, end-start)
		for _, j := range idx[start:end] {
			rects = append(rects, children[j].rect)
			kids = append(kids, children[j].page)
		}
		page, err := t.writeNode(false, rects, kids, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, builtNode{page: page, rect: unionAll(rects)})
	}
	return out, nil
}

func unionAll(rects []geom.Rect) geom.Rect {
	r := rects[0]
	for _, s := range rects[1:] {
		r = r.Union(s)
	}
	return r
}

// --- node (de)serialization ------------------------------------------------

func (t *Tree) writeNode(leaf bool, rects []geom.Rect, kids []pager.PageID, ids []int64) (pager.PageID, error) {
	page, buf, err := t.pool.Allocate(pager.PageTreeNode)
	if err != nil {
		return pager.InvalidPage, err
	}
	defer t.pool.Unpin(page)
	if err := EncodeNode(buf, t.dim, &Node{Leaf: leaf, Rects: rects, Children: kids, IDs: ids}); err != nil {
		return pager.InvalidPage, err
	}
	t.pool.MarkDirty(page)
	return page, nil
}

// EncodeNode serializes a node into a page payload buffer — the inverse
// of DecodeNode, shared by the bulk loader and the transactional mutation
// path.
func EncodeNode(buf []byte, dim int, n *Node) error {
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
		var ref uint64
		if n.Leaf {
			ref = uint64(n.IDs[i])
		} else {
			ref = uint64(n.Children[i])
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
	}
	return nil
}

// ReadNode materializes the node stored at the given page. Each call is
// one buffer-pool access (a hit or a physical read) counted on the shared
// pool.
func (t *Tree) ReadNode(page pager.PageID) (*Node, error) {
	return t.ReadNodeVia(t.pool, page)
}

// ReadNodeVia is ReadNode reading through an arbitrary pager.Reader —
// typically a per-search pager.Lease, so the page access is attributed to
// exactly one search even under concurrency.
func (t *Tree) ReadNodeVia(r pager.Reader, page pager.PageID) (*Node, error) {
	buf, err := r.Get(page)
	if err != nil {
		return nil, err
	}
	n, derr := DecodeNode(buf, t.dim)
	r.Unpin(page)
	if derr != nil {
		return nil, fmt.Errorf("diskrtree: page %d: %w", page, derr)
	}
	return n, nil
}

// DecodeNode decodes a node page image with dimensionality dim. The entry
// count is validated against the page size before any entry is touched, so
// malformed input yields an error wrapping ErrCorruptNode — never a panic.
// It is the tree's single source of decode truth (ReadNodeVia routes
// through it) and the surface FuzzNodeDecode exercises.
func DecodeNode(buf []byte, dim int) (*Node, error) {
	if dim < 1 || dim > maxDim {
		return nil, fmt.Errorf("%w: implausible dim %d", ErrCorruptNode, dim)
	}
	if len(buf) < 3 {
		return nil, fmt.Errorf("%w: %d-byte page too short", ErrCorruptNode, len(buf))
	}
	if buf[0] > 1 {
		return nil, fmt.Errorf("%w: bad leaf flag %d", ErrCorruptNode, buf[0])
	}
	leaf := buf[0] == 1
	count := int(binary.LittleEndian.Uint16(buf[1:]))
	if count < 1 && !leaf {
		// Internal nodes always have at least one child. A leaf with zero
		// entries is legal in exactly one place — the root of an empty
		// mutable tree — and decodes to an entry-less node.
		return nil, fmt.Errorf("%w: empty node", ErrCorruptNode)
	}
	entry := 16*dim + 8
	if 3+count*entry > len(buf) {
		return nil, fmt.Errorf("%w: %d entries of %d bytes overflow %d-byte page",
			ErrCorruptNode, count, entry, len(buf))
	}
	n := &Node{Leaf: leaf, Rects: make([]geom.Rect, count)}
	if leaf {
		n.IDs = make([]int64, count)
	} else {
		n.Children = make([]pager.PageID, count)
	}
	off := 3
	for i := 0; i < count; i++ {
		lo := make(geom.Point, dim)
		hi := make(geom.Point, dim)
		for j := 0; j < dim; j++ {
			lo[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for j := 0; j < dim; j++ {
			hi[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		n.Rects[i] = geom.Rect{Lo: lo, Hi: hi}
		ref := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		if leaf {
			n.IDs[i] = int64(ref)
		} else {
			n.Children[i] = pager.PageID(ref)
		}
	}
	return n, nil
}

// Search invokes fn for every entry whose rectangle intersects r,
// returning early when fn returns false.
func (t *Tree) Search(r geom.Rect, fn func(Entry) bool) error {
	_, err := t.search(t.root, r, fn)
	return err
}

func (t *Tree) search(page pager.PageID, r geom.Rect, fn func(Entry) bool) (bool, error) {
	n, err := t.ReadNode(page)
	if err != nil {
		return false, err
	}
	for i, rect := range n.Rects {
		if !rect.Intersects(r) {
			continue
		}
		if n.Leaf {
			if !fn(Entry{Rect: rect, ID: n.IDs[i]}) {
				return false, nil
			}
		} else {
			cont, err := t.search(n.Children[i], r, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}
