package rtree

// Tree is the in-memory R-tree: a memStore, the header and fanout the
// shared algorithms work from, and the read path the searches use (the
// root/children walk). The zero value is not usable; construct with New
// or Bulk. Tree is not safe for concurrent mutation; concurrent readers
// are safe once construction finishes.
type Tree struct {
	store  memStore
	hdr    Header
	fanout int
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
	_ = Insert(&t.store, &t.hdr, t.fanout, e)
}

// Delete removes the entry with e.ID whose rectangle equals e.Rect. It
// reports whether an entry was removed.
func (t *Tree) Delete(e Entry) bool {
	removed, _ := Delete(&t.store, &t.hdr, t.fanout, e)
	return removed
}
