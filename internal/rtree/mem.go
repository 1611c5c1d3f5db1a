package rtree

import (
	"sync/atomic"

	"spatialdom/internal/geom"
)

// Tree is the in-memory R-tree: a memStore, the header and fanout the
// shared algorithms work from, and the read paths the searches use (the
// root/children walk, the per-level pyramid, window search). The zero
// value is not usable; construct with New or Bulk. Tree is not safe for
// concurrent mutation; concurrent readers are safe once construction
// finishes.
type Tree struct {
	store  memStore
	hdr    Header
	fanout int

	// levels memoizes NodesAtLevel's per-level lists; it is populated
	// lazily (safely under concurrent readers) and dropped on any mutation.
	levels atomic.Pointer[[][]Entry]
}

// memStore keeps nodes in a slice indexed by NodeID and writes them in
// place, so ids never move and no operation fails — which is why Tree
// drops the errors of the shared algorithms. Slot 0 is NoNode's.
type memStore struct {
	nodes []Node
	free  []NodeID
}

func (m *memStore) Read(id NodeID) (*Node, error) { return &m.nodes[id], nil }

func (m *memStore) Write(old NodeID, n *Node) (NodeID, error) {
	switch {
	case old != NoNode:
	case len(m.free) > 0:
		old = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	default:
		old = NodeID(len(m.nodes))
		m.nodes = append(m.nodes, Node{})
	}
	m.nodes[old] = *n
	return old, nil
}

func (m *memStore) Free(id NodeID) {
	m.nodes[id] = Node{}
	m.free = append(m.free, id)
}

// New returns an empty tree whose nodes hold at most maxEntries (>= 4)
// entries.
func New(maxEntries int) *Tree { return Bulk(nil, maxEntries) }

// Bulk builds a tree from entries using Sort-Tile-Recursive packing. The
// input slice is not retained.
func Bulk(entries []Entry, maxEntries int) *Tree {
	if maxEntries < 4 {
		panic("rtree: maxEntries must be >= 4")
	}
	t := &Tree{store: memStore{nodes: make([]Node, 1)}, fanout: maxEntries}
	t.hdr, _ = BulkLoad(&t.store, maxEntries, entries)
	return t
}

// Len returns the number of entries stored.
func (t *Tree) Len() int { return t.hdr.Size }

// Height returns the number of levels (1 for a single leaf root).
func (t *Tree) Height() int { return t.hdr.Height }

// Root returns the root node's id; the root of an empty tree is a leaf
// without entries.
func (t *Tree) Root() NodeID { return t.hdr.Root }

// Node returns the node with the given id for read-only traversal.
func (t *Tree) Node(id NodeID) *Node { return &t.store.nodes[id] }

// Insert adds an entry to the tree.
func (t *Tree) Insert(e Entry) {
	//nnc:publish invalidation: nil forces the next reader to rebuild the pyramid
	t.levels.Store(nil)
	_ = Insert(&t.store, &t.hdr, t.fanout, e)
}

// Delete removes the entry with e.ID whose rectangle equals e.Rect. It
// reports whether an entry was removed.
func (t *Tree) Delete(e Entry) bool {
	//nnc:publish invalidation: nil forces the next reader to rebuild the pyramid
	t.levels.Store(nil)
	removed, _ := Delete(&t.store, &t.hdr, t.fanout, e)
	return removed
}

// Search invokes fn for every entry whose rectangle intersects r. Returning
// false from fn stops the search early.
func (t *Tree) Search(r geom.Rect, fn func(Entry) bool) {
	t.search(t.hdr.Root, r, fn)
}

func (t *Tree) search(id NodeID, r geom.Rect, fn func(Entry) bool) bool {
	n := t.Node(id)
	for i, rect := range n.Rects {
		if !rect.Intersects(r) {
			continue
		}
		if n.Leaf {
			if !fn(Entry{Rect: rect, ID: n.Refs[i]}) {
				return false
			}
		} else if !t.search(n.Refs[i], r, fn) {
			return false
		}
	}
	return true
}

// CollectIDs appends the IDs of every entry in the subtree under node id
// to dst.
func (t *Tree) CollectIDs(id NodeID, dst []int) []int {
	n := t.Node(id)
	for _, ref := range n.Refs {
		if n.Leaf {
			dst = append(dst, int(ref))
		} else {
			dst = t.CollectIDs(ref, dst)
		}
	}
	return dst
}

// NodesAtLevel returns the nodes at the given level as their parents see
// them — MBR plus NodeID — where level 0 is the root; levels past the
// leaves return the leaf level, and an empty tree has none. The per-level
// lists are memoized on the tree (and invalidated by Insert/Delete), so
// repeated calls — the level-by-level dominance filters ask for the same
// levels on every search — return shared slices without allocating. The
// returned slice must not be modified.
func (t *Tree) NodesAtLevel(level int) []Entry {
	if t.hdr.Size == 0 {
		return nil
	}
	lc := t.levels.Load()
	if lc == nil {
		pyramid := t.buildLevels()
		// Concurrent readers may race to build; the CAS keeps one winner
		// and every built pyramid is identical.
		//nnc:publish lazy-build CAS: losers discard their pyramid and load the winner's
		if !t.levels.CompareAndSwap(nil, &pyramid) {
			lc = t.levels.Load()
		} else {
			lc = &pyramid
		}
	}
	levels := *lc
	return levels[min(level, len(levels)-1)]
}

// buildLevels materializes every level 0..height-1 in one pass.
//
//nnc:coldpath one-time pyramid build, memoized in levels until the next tree mutation
func (t *Tree) buildLevels() [][]Entry {
	levels := make([][]Entry, 1, t.hdr.Height)
	levels[0] = []Entry{{Rect: mbr(t.Node(t.hdr.Root)), ID: t.hdr.Root}}
	for l := 1; l < t.hdr.Height; l++ {
		next := make([]Entry, 0, len(levels[l-1])*t.fanout)
		for _, parent := range levels[l-1] {
			n := t.Node(parent.ID)
			for i, ref := range n.Refs {
				next = append(next, Entry{Rect: n.Rects[i], ID: ref})
			}
		}
		levels = append(levels, next)
	}
	return levels
}
