package diskrtree

// Transactional insert/delete on the page R-tree: Guttman's ChooseLeaf /
// quadratic split / CondenseTree over pages, taking the choose and split
// decisions from internal/rtree's rect-slice policy functions. Every mutated node is
// copy-on-written through a pager.TxPager — a modified node is re-encoded
// into a fresh page and its old page freed, so the path from the old root
// stays byte-identical for searches pinned to the pre-transaction
// snapshot. Pages the transaction itself allocated are rewritten in
// place (tx.Owned), keeping the page churn of one insert proportional to
// the tree height.
//
// The Tree's in-memory root/height/size fields track the
// post-transaction state as mutations run; the index layer snapshots
// them (State/Restore) so an aborted transaction can roll them back.

import (
	"fmt"

	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
)

// CreateEmpty writes a fresh empty tree (meta page + zero-entry leaf
// root) into the pool's file and returns its handle. The caller flushes.
func CreateEmpty(pool *pager.Pool, dim int) (*Tree, error) {
	if dim < 1 || dim > maxDim {
		return nil, fmt.Errorf("diskrtree: implausible dim %d", dim)
	}
	t := &Tree{
		pool:   pool,
		dim:    dim,
		height: 1,
		cap:    Capacity(pool.File().PageSize(), dim),
	}
	metaID, _, err := pool.Allocate(pager.PageTreeMeta)
	if err != nil {
		return nil, err
	}
	pool.Unpin(metaID)
	t.meta = metaID
	rootID, rootBuf, err := pool.Allocate(pager.PageTreeNode)
	if err != nil {
		return nil, err
	}
	if err := EncodeNode(rootBuf, dim, &Node{Leaf: true}); err != nil {
		pool.Unpin(rootID)
		return nil, err
	}
	pool.MarkDirty(rootID)
	pool.Unpin(rootID)
	t.root = rootID
	metaBuf, err := pool.Get(metaID)
	if err != nil {
		return nil, err
	}
	t.encodeMeta(metaBuf)
	pool.MarkDirty(metaID)
	pool.Unpin(metaID)
	return t, nil
}

func (t *Tree) encodeMeta(buf []byte) {
	copy(buf, metaMagic)
	putU16(buf[4:], uint16(t.dim))
	putU16(buf[6:], uint16(t.height))
	putU64(buf[8:], uint64(t.size))
	putU32(buf[16:], uint32(t.root))
}

// State is the mutable header of a tree, captured for transaction
// rollback.
type State struct {
	Root   pager.PageID
	Height int
	Size   int
}

// State snapshots the tree's mutable fields.
func (t *Tree) State() State { return State{Root: t.root, Height: t.height, Size: t.size} }

// Restore rolls the tree's mutable fields back to a captured State.
func (t *Tree) Restore(s State) { t.root, t.height, t.size = s.Root, s.Height, s.Size }

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

// minFill is the underflow threshold: Guttman's m, 40% of capacity
// clamped to [2, cap/2].
func (t *Tree) minFill() int {
	m := t.cap * 2 / 5
	if m < 2 {
		m = 2
	}
	if m > t.cap/2 {
		m = t.cap / 2
	}
	return m
}

func (t *Tree) readNodeTx(tx pager.TxPager, page pager.PageID) (*Node, error) {
	buf, err := tx.Read(page)
	if err != nil {
		return nil, err
	}
	n, err := DecodeNode(buf, t.dim)
	if err != nil {
		return nil, fmt.Errorf("diskrtree: page %d: %w", page, err)
	}
	return n, nil
}

// writeNodeTx persists a node: in place when the transaction owns the
// page, else copy-on-write (fresh page, old page freed).
func (t *Tree) writeNodeTx(tx pager.TxPager, old pager.PageID, n *Node) (pager.PageID, error) {
	if old != pager.InvalidPage && tx.Owned(old) {
		buf, err := tx.Stage(old, pager.PageTreeNode)
		if err != nil {
			return pager.InvalidPage, err
		}
		return old, EncodeNode(buf, t.dim, n)
	}
	id, buf, err := tx.Alloc(pager.PageTreeNode)
	if err != nil {
		return pager.InvalidPage, err
	}
	if err := EncodeNode(buf, t.dim, n); err != nil {
		return pager.InvalidPage, err
	}
	if old != pager.InvalidPage {
		tx.Free(old)
	}
	return id, nil
}

type crumb struct {
	page  pager.PageID
	n     *Node
	child int // index into n.Children taken during descent (-1 at the leaf)
}

// InsertTx adds one entry inside the surrounding transaction, splitting
// nodes and growing the root as needed. Parent MBRs are updated
// bottom-up; every touched node is rewritten copy-on-write.
func (t *Tree) InsertTx(tx pager.TxPager, e Entry) error {
	if e.Rect.Dim() != t.dim {
		return fmt.Errorf("diskrtree: entry dim %d != tree dim %d", e.Rect.Dim(), t.dim)
	}
	// ChooseLeaf: descend by least enlargement, remembering the path.
	var path []crumb
	cur := t.root
	for {
		n, err := t.readNodeTx(tx, cur)
		if err != nil {
			return err
		}
		if n.Leaf {
			path = append(path, crumb{page: cur, n: n, child: -1})
			break
		}
		if len(n.Children) == 0 {
			return fmt.Errorf("diskrtree: page %d: %w", cur, ErrCorruptNode)
		}
		i := rtree.ChooseSubtree(n.Rects, e.Rect)
		path = append(path, crumb{page: cur, n: n, child: i})
		cur = n.Children[i]
	}
	leaf := path[len(path)-1]
	leaf.n.Rects = append(leaf.n.Rects, e.Rect)
	leaf.n.IDs = append(leaf.n.IDs, e.ID)

	// Write back bottom-up. pageA/rectA is the rewritten node at the
	// current level; pageB/rectB its split sibling when one exists.
	pageA, rectA, pageB, rectB, haveB, err := t.writeLevel(tx, leaf.page, leaf.n)
	if err != nil {
		return err
	}
	for i := len(path) - 2; i >= 0; i-- {
		c := path[i]
		c.n.Rects[c.child] = rectA
		c.n.Children[c.child] = pageA
		if haveB {
			c.n.Rects = append(c.n.Rects, rectB)
			c.n.Children = append(c.n.Children, pageB)
		}
		pageA, rectA, pageB, rectB, haveB, err = t.writeLevel(tx, c.page, c.n)
		if err != nil {
			return err
		}
	}
	if haveB {
		// Root split: the tree grows upward.
		root := &Node{
			Rects:    []geom.Rect{rectA, rectB},
			Children: []pager.PageID{pageA, pageB},
		}
		rootPage, err := t.writeNodeTx(tx, pager.InvalidPage, root)
		if err != nil {
			return err
		}
		t.root = rootPage
		t.height++
	} else {
		t.root = pageA
	}
	t.size++
	return nil
}

// writeLevel persists one (possibly overflowing) node, splitting when it
// exceeds capacity, and returns the resulting page(s) and MBR(s).
func (t *Tree) writeLevel(tx pager.TxPager, old pager.PageID, n *Node) (pageA pager.PageID, rectA geom.Rect, pageB pager.PageID, rectB geom.Rect, haveB bool, err error) {
	if len(n.Rects) <= t.cap {
		pageA, err = t.writeNodeTx(tx, old, n)
		if err != nil {
			return
		}
		rectA = unionAll(n.Rects)
		return
	}
	a, b := t.splitNode(n)
	if pageA, err = t.writeNodeTx(tx, old, a); err != nil {
		return
	}
	if pageB, err = t.writeNodeTx(tx, pager.InvalidPage, b); err != nil {
		return
	}
	rectA, rectB, haveB = unionAll(a.Rects), unionAll(b.Rects), true
	return
}

// splitNode partitions an overflowing node's entries into two nodes with
// the shared quadratic split policy (rtree.QuadraticSplit).
func (t *Tree) splitNode(n *Node) (*Node, *Node) {
	groupA, groupB := rtree.QuadraticSplit(n.Rects, t.minFill())
	a := &Node{Leaf: n.Leaf}
	b := &Node{Leaf: n.Leaf}
	take := func(g *Node, idx []int) {
		for _, i := range idx {
			g.Rects = append(g.Rects, n.Rects[i])
			if n.Leaf {
				g.IDs = append(g.IDs, n.IDs[i])
			} else {
				g.Children = append(g.Children, n.Children[i])
			}
		}
	}
	take(a, groupA)
	take(b, groupB)
	return a, b
}

// DeleteTx removes the entry with e.ID whose stored rectangle equals
// e.Rect, condensing underflowing nodes (their surviving entries are
// reinserted) and shrinking the root. It reports whether the entry was
// found.
func (t *Tree) DeleteTx(tx pager.TxPager, e Entry) (bool, error) {
	if e.Rect.Dim() != t.dim {
		return false, fmt.Errorf("diskrtree: entry dim %d != tree dim %d", e.Rect.Dim(), t.dim)
	}
	path, entryIdx, err := t.findLeafTx(tx, t.root, e, nil)
	if err != nil {
		return false, err
	}
	if path == nil {
		return false, nil
	}
	leaf := path[len(path)-1].n
	leaf.Rects = append(leaf.Rects[:entryIdx], leaf.Rects[entryIdx+1:]...)
	leaf.IDs = append(leaf.IDs[:entryIdx], leaf.IDs[entryIdx+1:]...)

	// CondenseTree bottom-up: underflowing non-root nodes are dissolved —
	// their whole subtree's leaf entries queue for reinsertion and its
	// pages are freed; surviving nodes are rewritten copy-on-write with
	// their parent MBR tightened.
	min := t.minFill()
	var orphans []Entry
	for i := len(path) - 1; i >= 1; i-- {
		c := path[i]
		parent := path[i-1]
		if len(c.n.Rects) < min {
			if err := t.collectEntries(tx, c.n, &orphans); err != nil {
				return false, err
			}
			tx.Free(c.page)
			j := parent.child
			parent.n.Rects = append(parent.n.Rects[:j], parent.n.Rects[j+1:]...)
			parent.n.Children = append(parent.n.Children[:j], parent.n.Children[j+1:]...)
			continue
		}
		page, err := t.writeNodeTx(tx, c.page, c.n)
		if err != nil {
			return false, err
		}
		parent.n.Rects[parent.child] = unionAll(c.n.Rects)
		parent.n.Children[parent.child] = page
	}

	// The root: rewrite, then shrink while an internal root has a single
	// child; an emptied internal root collapses to a fresh empty leaf.
	root := path[0]
	rootPage, err := t.writeNodeTx(tx, root.page, root.n)
	if err != nil {
		return false, err
	}
	t.root = rootPage
	rn := root.n
	for !rn.Leaf && len(rn.Children) == 1 {
		child := rn.Children[0]
		tx.Free(t.root)
		t.root = child
		t.height--
		n, err := t.readNodeTx(tx, child)
		if err != nil {
			return false, err
		}
		rn = n
	}
	if !rn.Leaf && len(rn.Children) == 0 {
		tx.Free(t.root)
		empty := &Node{Leaf: true}
		page, err := t.writeNodeTx(tx, pager.InvalidPage, empty)
		if err != nil {
			return false, err
		}
		t.root = page
		t.height = 1
	}

	// Reinsert the orphaned entries. InsertTx increments size per entry,
	// so account for the removals (the deleted entry plus the orphans)
	// first.
	t.size -= 1 + len(orphans)
	for _, oe := range orphans {
		if err := t.InsertTx(tx, oe); err != nil {
			return false, err
		}
	}
	return true, nil
}

// findLeafTx locates the leaf holding the entry, returning the descent
// path and the entry's index in the leaf, or a nil path when absent.
func (t *Tree) findLeafTx(tx pager.TxPager, page pager.PageID, e Entry, prefix []crumb) ([]crumb, int, error) {
	n, err := t.readNodeTx(tx, page)
	if err != nil {
		return nil, 0, err
	}
	if n.Leaf {
		for i, r := range n.Rects {
			if n.IDs[i] == e.ID && r.Equal(e.Rect) {
				return append(prefix, crumb{page: page, n: n, child: -1}), i, nil
			}
		}
		return nil, 0, nil
	}
	for i, r := range n.Rects {
		if !r.ContainsRect(e.Rect) {
			continue
		}
		path, idx, err := t.findLeafTx(tx, n.Children[i], e, append(prefix, crumb{page: page, n: n, child: i}))
		if err != nil {
			return nil, 0, err
		}
		if path != nil {
			return path, idx, nil
		}
	}
	return nil, 0, nil
}

// collectEntries gathers every leaf entry under an in-memory node,
// freeing the pages of its descendants (the node's own page is freed by
// the caller).
func (t *Tree) collectEntries(tx pager.TxPager, n *Node, out *[]Entry) error {
	if n.Leaf {
		for i, r := range n.Rects {
			*out = append(*out, Entry{Rect: r, ID: n.IDs[i]})
		}
		return nil
	}
	for _, child := range n.Children {
		cn, err := t.readNodeTx(tx, child)
		if err != nil {
			return err
		}
		if err := t.collectEntries(tx, cn, out); err != nil {
			return err
		}
		tx.Free(child)
	}
	return nil
}

func putU16(b []byte, v uint16) { b[0], b[1] = byte(v), byte(v>>8) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
