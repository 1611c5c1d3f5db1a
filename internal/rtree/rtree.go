// Package rtree implements an in-memory R-tree over d-dimensional
// rectangles, written from scratch on the standard library only.
//
// The tree supports Sort-Tile-Recursive (STR) bulk loading, Guttman
// quadratic-split insertion, deletion with subtree reinsertion, rectangle
// intersection search, best-first nearest/farthest instance search, and kNN.
// Internal nodes are exposed read-only so that callers (the NN-candidate
// search of Algorithm 1 and the level-by-level P-SD filter) can run their own
// best-first traversals and level-wise decompositions.
//
// Two configurations are used by the reproduction, mirroring Section 6 of
// the paper: a global tree over object MBRs with a fanout derived from a
// 4096-byte page, and a per-object local tree over instances with fanout 4.
package rtree

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"spatialdom/internal/geom"
)

// Entry is a leaf payload: a rectangle (possibly degenerate, for points) and
// an opaque integer identifier.
type Entry struct {
	Rect geom.Rect
	ID   int
}

// Node is a tree node. Exactly one of children/entries is populated
// depending on leaf status. Nodes are exposed read-only; mutating them
// corrupts the tree.
type Node struct {
	rect     geom.Rect
	leaf     bool
	children []*Node
	entries  []Entry
}

// Rect returns the node's MBR.
func (n *Node) Rect() geom.Rect { return n.rect }

// IsLeaf reports whether the node stores entries rather than child nodes.
func (n *Node) IsLeaf() bool { return n.leaf }

// Children returns the child nodes of an internal node (nil for leaves).
func (n *Node) Children() []*Node { return n.children }

// Entries returns the entries of a leaf node (nil for internal nodes).
func (n *Node) Entries() []Entry { return n.entries }

// CollectIDs appends the IDs of every entry in the subtree to dst.
func (n *Node) CollectIDs(dst []int) []int {
	if n.leaf {
		for _, e := range n.entries {
			dst = append(dst, e.ID)
		}
		return dst
	}
	for _, c := range n.children {
		dst = c.CollectIDs(dst)
	}
	return dst
}

// CollectEntries appends every entry in the subtree to dst.
func (n *Node) CollectEntries(dst []Entry) []Entry {
	if n.leaf {
		return append(dst, n.entries...)
	}
	for _, c := range n.children {
		dst = c.CollectEntries(dst)
	}
	return dst
}

func (n *Node) recomputeRect() {
	if n.leaf {
		if len(n.entries) == 0 {
			return
		}
		r := n.entries[0].Rect
		for _, e := range n.entries[1:] {
			r = r.Union(e.Rect)
		}
		n.rect = r
		return
	}
	if len(n.children) == 0 {
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
	}
	n.rect = r
}

// Tree is an R-tree. The zero value is not usable; construct with New or
// Bulk. Tree is not safe for concurrent mutation; concurrent readers are
// safe once construction finishes.
type Tree struct {
	root     *Node
	min, max int
	size     int
	height   int // number of levels; 1 for a single leaf root

	// levelCache memoizes NodesAtLevel's per-level node lists; it is
	// populated lazily (safely under concurrent readers) and dropped on
	// any mutation.
	levelCache atomic.Pointer[[][]*Node]

	// pqPool recycles the best-first traversal heaps so warm
	// Nearest/KNN/MaxDist calls run without allocating (see query.go).
	pqPool sync.Pool
}

// DefaultFanout returns the fanout implied by an R-tree page of pageBytes
// for d-dimensional data, assuming 8-byte coordinates for the two MBR
// corners plus an 8-byte child pointer/ID per entry, after the 3-byte node
// header (leaf flag + entry count) of the disk node layout. This mirrors
// the paper's "page size is 4096 bytes" global-tree configuration and
// matches diskrtree.Capacity entry-for-entry, so in-memory and
// disk-resident trees built from the same data have identical shapes.
func DefaultFanout(pageBytes, dim int) int {
	per := 16*dim + 8
	f := (pageBytes - 3) / per
	if f < 4 {
		f = 4
	}
	return f
}

// New returns an empty tree with the given node occupancy bounds.
// minEntries must satisfy 2 <= minEntries <= maxEntries/2.
func New(minEntries, maxEntries int) *Tree {
	if maxEntries < 4 {
		panic("rtree: maxEntries must be >= 4")
	}
	if minEntries < 2 || minEntries > maxEntries/2 {
		panic("rtree: invalid occupancy bounds min=" + strconv.Itoa(minEntries) +
			" max=" + strconv.Itoa(maxEntries))
	}
	return &Tree{
		root:   &Node{leaf: true},
		min:    minEntries,
		max:    maxEntries,
		height: 1,
	}
}

// Len returns the number of entries stored.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a single leaf root).
func (t *Tree) Height() int { return t.height }

// Root returns the root node for read-only traversal, or nil when empty.
func (t *Tree) Root() *Node {
	if t.size == 0 {
		return nil
	}
	return t.root
}

// Bounds returns the MBR of all entries. ok is false when the tree is empty.
func (t *Tree) Bounds() (r geom.Rect, ok bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.rect, true
}

// --- STR bulk loading -------------------------------------------------------

// Bulk builds a tree from entries using Sort-Tile-Recursive packing. The
// input slice is not retained but is reordered in place.
func Bulk(entries []Entry, minEntries, maxEntries int) *Tree {
	t := New(minEntries, maxEntries)
	if len(entries) == 0 {
		return t
	}
	dim := entries[0].Rect.Dim()
	leaves := strPackEntries(entries, dim, maxEntries)
	t.size = len(entries)
	level := leaves
	t.height = 1
	for len(level) > 1 {
		level = strPackNodes(level, dim, maxEntries)
		t.height++
	}
	t.root = level[0]
	return t
}

// strPackEntries tiles entries into leaf nodes of capacity cap.
func strPackEntries(entries []Entry, dim, capacity int) []*Node {
	centers := make([]geom.Point, len(entries))
	for i, e := range entries {
		centers[i] = e.Rect.Center()
	}
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	strTile(idx, centers, 0, dim, capacity)
	var leaves []*Node
	for start := 0; start < len(idx); start += capacity {
		end := start + capacity
		if end > len(idx) {
			end = len(idx)
		}
		n := &Node{leaf: true, entries: make([]Entry, 0, end-start)}
		for _, j := range idx[start:end] {
			n.entries = append(n.entries, entries[j])
		}
		n.recomputeRect()
		leaves = append(leaves, n)
	}
	return leaves
}

// STROrder returns the indices of rects permuted into Sort-Tile-Recursive
// order with the given tile capacity: the exact ordering Bulk packs leaves
// in, exposed so a range partitioner (internal/cluster) can cut the same
// spatially coherent tiles into shards. capacity controls tile granularity;
// a partitioner slicing the returned order into N contiguous runs gets
// shards whose MBRs overlap no more than the tree's own leaves do.
func STROrder(rects []geom.Rect, capacity int) []int {
	idx := make([]int, len(rects))
	for i := range idx {
		idx[i] = i
	}
	if len(rects) == 0 {
		return idx
	}
	if capacity < 1 {
		capacity = 1
	}
	centers := make([]geom.Point, len(rects))
	for i, r := range rects {
		centers[i] = r.Center()
	}
	strTile(idx, centers, 0, rects[0].Dim(), capacity)
	return idx
}

// strPackNodes tiles child nodes into parent nodes of capacity cap.
func strPackNodes(nodes []*Node, dim, capacity int) []*Node {
	centers := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		centers[i] = n.rect.Center()
	}
	idx := make([]int, len(nodes))
	for i := range idx {
		idx[i] = i
	}
	strTile(idx, centers, 0, dim, capacity)
	var parents []*Node
	for start := 0; start < len(idx); start += capacity {
		end := start + capacity
		if end > len(idx) {
			end = len(idx)
		}
		p := &Node{children: make([]*Node, 0, end-start)}
		for _, j := range idx[start:end] {
			p.children = append(p.children, nodes[j])
		}
		p.recomputeRect()
		parents = append(parents, p)
	}
	return parents
}

// strTile recursively sorts idx so that consecutive runs of `capacity`
// indices form spatially coherent tiles (classic STR).
func strTile(idx []int, centers []geom.Point, d, dim, capacity int) {
	slices.SortFunc(idx, func(i, j int) int { return cmp.Compare(centers[i][d], centers[j][d]) })
	if d == dim-1 {
		return
	}
	pages := (len(idx) + capacity - 1) / capacity
	// Number of vertical slabs: ceil(pages^(1/(dim-d))).
	slabs := intRoot(pages, dim-d)
	slabSize := ((len(idx)+slabs-1)/slabs + capacity - 1) / capacity * capacity
	if slabSize == 0 {
		slabSize = capacity
	}
	for start := 0; start < len(idx); start += slabSize {
		end := start + slabSize
		if end > len(idx) {
			end = len(idx)
		}
		strTile(idx[start:end], centers, d+1, dim, capacity)
	}
}

// intRoot returns ceil(n^(1/k)) for n, k >= 1.
func intRoot(n, k int) int {
	if n <= 1 || k <= 1 {
		if k <= 1 {
			return n
		}
		return 1
	}
	r := 1
	for pow(r, k) < n {
		r++
	}
	return r
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
		if r < 0 { // overflow guard; callers only compare against small n
			return 1 << 62
		}
	}
	return r
}

// --- Insertion ---------------------------------------------------------------

// Insert adds an entry to the tree (Guttman's algorithm with quadratic
// split).
func (t *Tree) Insert(e Entry) {
	//nnc:publish invalidation: nil forces the next reader to rebuild the pyramid
	t.levelCache.Store(nil)
	t.size++
	split := t.insert(t.root, e)
	if split != nil {
		old := t.root
		t.root = &Node{children: []*Node{old, split}}
		t.root.recomputeRect()
		t.height++
	}
}

// insert places e in the subtree rooted at n, returning a new sibling when n
// was split.
func (t *Tree) insert(n *Node, e Entry) *Node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if t.size == 1 {
			n.rect = e.Rect.Clone()
		} else {
			n.rect = n.rect.Union(e.Rect)
		}
		if len(n.entries) > t.max {
			return t.splitLeaf(n)
		}
		return nil
	}
	child := n.children[ChooseSubtree(childRects(n.children), e.Rect)]
	split := t.insert(child, e)
	n.rect = n.rect.Union(e.Rect)
	if split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.max {
			return t.splitInternal(n)
		}
	}
	return nil
}

// The insertion policy below is written over plain rect slices so every
// tree in the repo — this pointer-backed one and the page-backed
// diskrtree — makes the same choices from the same code; each keeps only
// its own node storage.

// ChooseSubtree returns the index of the rect needing least enlargement
// to cover r, breaking ties by smaller area then lower index (Guttman's
// ChooseLeaf step). rects must be non-empty.
func ChooseSubtree(rects []geom.Rect, r geom.Rect) int {
	best := 0
	bestEnl := rects[0].Enlargement(r)
	bestArea := rects[0].Area()
	for i := 1; i < len(rects); i++ {
		enl := rects[i].Enlargement(r)
		if enl < bestEnl || (enl == bestEnl && rects[i].Area() < bestArea) {
			best, bestEnl, bestArea = i, enl, rects[i].Area()
		}
	}
	return best
}

// QuadraticSplit partitions the indices of an overflowing node's rects
// into two groups with Guttman's quadratic algorithm: seed the groups with
// the pair wasting the most area together (PickSeeds), then repeatedly
// assign the entry with the greatest preference difference (PickNext),
// force-assigning the remainder when a group must reach minEntries.
// Preference ties go to the smaller-area group, then the smaller group,
// then A, so the split is deterministic.
func QuadraticSplit(rects []geom.Rect, minEntries int) (groupA, groupB []int) {
	seedA, seedB := pickSeeds(rects)
	groupA = []int{seedA}
	groupB = []int{seedB}
	rectA := rects[seedA].Clone()
	rectB := rects[seedB].Clone()
	rest := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		if len(groupA)+len(rest) == minEntries {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) == minEntries {
			groupB = append(groupB, rest...)
			break
		}
		// PickNext: maximize |d(A) - d(B)|.
		bestK, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for k, i := range rest {
			dA := rectA.Enlargement(rects[i])
			dB := rectB.Enlargement(rects[i])
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestK, bestDiff, bestDA, bestDB = k, diff, dA, dB
			}
		}
		i := rest[bestK]
		rest[bestK] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		toA := bestDA < bestDB
		if bestDA == bestDB {
			if rectA.Area() != rectB.Area() {
				toA = rectA.Area() < rectB.Area()
			} else {
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, i)
			rectA = rectA.Union(rects[i])
		} else {
			groupB = append(groupB, i)
			rectB = rectB.Union(rects[i])
		}
	}
	return groupA, groupB
}

// pickSeeds returns the pair of entries that would waste the most area if
// grouped together.
func pickSeeds(rects []geom.Rect) (int, int) {
	sa, sb, worst := 0, 1, -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				sa, sb, worst = i, j, d
			}
		}
	}
	return sa, sb
}

func childRects(children []*Node) []geom.Rect {
	rects := make([]geom.Rect, len(children))
	for i, c := range children {
		rects[i] = c.rect
	}
	return rects
}

// pick returns the elements of src at the given indices, in that order.
func pick[T any](src []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

func (t *Tree) splitLeaf(n *Node) *Node {
	rects := make([]geom.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.Rect
	}
	groupA, groupB := QuadraticSplit(rects, t.min)
	sib := &Node{leaf: true, entries: pick(n.entries, groupB)}
	n.entries = pick(n.entries, groupA)
	n.recomputeRect()
	sib.recomputeRect()
	return sib
}

func (t *Tree) splitInternal(n *Node) *Node {
	groupA, groupB := QuadraticSplit(childRects(n.children), t.min)
	sib := &Node{children: pick(n.children, groupB)}
	n.children = pick(n.children, groupA)
	n.recomputeRect()
	sib.recomputeRect()
	return sib
}

// --- Deletion ----------------------------------------------------------------

// Delete removes the entry with the given ID whose rectangle equals r.
// It reports whether an entry was removed.
func (t *Tree) Delete(r geom.Rect, id int) bool {
	//nnc:publish invalidation: nil forces the next reader to rebuild the pyramid
	t.levelCache.Store(nil)
	leaf, pos, path := t.findLeaf(t.root, r, id, nil)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:pos], leaf.entries[pos+1:]...)
	t.size--
	t.condense(leaf, path)
	// Shrink the root while it has a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	if t.size == 0 {
		t.root = &Node{leaf: true}
		t.height = 1
	}
	return true
}

func (t *Tree) findLeaf(n *Node, r geom.Rect, id int, path []*Node) (*Node, int, []*Node) {
	if n.leaf {
		for i, e := range n.entries {
			if e.ID == id && e.Rect.Equal(r) {
				return n, i, path
			}
		}
		return nil, 0, nil
	}
	for _, c := range n.children {
		if c.rect.ContainsRect(r) || c.rect.Intersects(r) {
			if leaf, pos, p := t.findLeaf(c, r, id, append(path, n)); leaf != nil {
				return leaf, pos, p
			}
		}
	}
	return nil, 0, nil
}

// condense walks back up the path removing underfull nodes and reinserting
// their contents.
func (t *Tree) condense(n *Node, path []*Node) {
	var orphanEntries []Entry
	var orphanNodes []*Node
	cur := n
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		under := false
		if cur.leaf {
			under = len(cur.entries) < t.min
		} else {
			under = len(cur.children) < t.min
		}
		if under && parent != nil {
			for j, c := range parent.children {
				if c == cur {
					parent.children = append(parent.children[:j], parent.children[j+1:]...)
					break
				}
			}
			if cur.leaf {
				orphanEntries = append(orphanEntries, cur.entries...)
			} else {
				orphanNodes = append(orphanNodes, cur.children...)
			}
		} else {
			cur.recomputeRect()
		}
		cur = parent
	}
	t.root.recomputeRect()
	for _, e := range orphanEntries {
		t.size-- // Insert re-increments
		t.Insert(e)
	}
	for _, sub := range orphanNodes {
		for _, e := range sub.CollectEntries(nil) {
			t.size--
			t.Insert(e)
		}
	}
}
