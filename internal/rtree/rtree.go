// Package rtree is the repo's one R-tree, written from scratch on the
// standard library only: Sort-Tile-Recursive bulk loading, Guttman
// insertion with quadratic split, and deletion with condense-and-reinsert,
// each written once over a Store — the seam that says where nodes live.
//
// Two stores exist, mirroring Section 6 of the paper. The in-memory Tree of
// mem.go (a slice of nodes written in place) serves the in-memory global
// index over object MBRs with a page-derived fanout; the page store of
// internal/diskrtree (one node per page, copy-on-write inside a
// transaction) serves the disk-resident global index. The algorithms never
// ask which one they are on, so the same sequence of operations yields the
// same tree, node for node, in memory and on disk.
package rtree

import (
	"cmp"
	"math"
	"slices"

	"spatialdom/internal/geom"
)

// NodeID names a node inside a Store. NoNode is the id no node has.
type NodeID = int64

// NoNode is the zero id: "no node yet" when passed to Store.Write.
const NoNode NodeID = 0

// Entry is a leaf payload: a rectangle (possibly degenerate, for points) and
// an opaque integer identifier.
type Entry struct {
	Rect geom.Rect
	ID   int64
}

// Node is a tree node: Rects[i] is the MBR of Refs[i], which is an entry
// id in a leaf and the NodeID of a child otherwise. A node does not store
// its own MBR; its parent does.
type Node struct {
	Leaf  bool
	Rects []geom.Rect
	Refs  []int64
}

// Store is where nodes live. Read returns a node the caller may modify
// and must then Write back (or Free); Write persists n as the successor of
// the node at old and returns the id it now lives at — the same id from a
// store that writes in place, a fresh one from a copy-on-write store — or
// allocates when old is NoNode; Free releases a node no longer reachable.
type Store interface {
	Read(id NodeID) (*Node, error)
	Write(old NodeID, n *Node) (NodeID, error)
	Free(id NodeID)
}

// Header is a tree's state outside its nodes. Height counts levels (1 for
// a lone leaf root); an empty tree is a root leaf without entries.
type Header struct {
	Root   NodeID
	Height int
	Size   int
}

// DefaultFanout returns the node capacity implied by a page payload of
// pageBytes for d-dimensional data: 8-byte coordinates for the two MBR
// corners plus an 8-byte reference per entry, after the 3-byte node header
// of the disk layout (internal/diskrtree), and never below 4. It is the
// one capacity formula: the in-memory global tree derives its fanout from
// the same payload size the disk tree's pages have, which is what lets
// TestMemDiskSameShape demand identical trees from the two.
func DefaultFanout(pageBytes, dim int) int {
	return max((pageBytes-3)/(16*dim+8), 4)
}

// minFill is the underflow threshold — Guttman's m, 40% of capacity but at
// least 2 — and the smallest group QuadraticSplit may produce.
func minFill(fanout int) int {
	return max(fanout*2/5, 2)
}

// --- STR bulk loading ---------------------------------------------------------

// BulkLoad packs entries into a fresh tree with Sort-Tile-Recursive
// tiling, writing leaves first and each level above in turn; no entries
// yields the empty tree. Only Write is asked of the store.
func BulkLoad(s interface {
	Write(old NodeID, n *Node) (NodeID, error)
}, fanout int, entries []Entry) (Header, error) {
	if len(entries) == 0 {
		root, err := s.Write(NoNode, &Node{Leaf: true})
		return Header{Root: root, Height: 1}, err
	}
	h := Header{Size: len(entries)}
	level, leaf := entries, true
	for {
		rects := make([]geom.Rect, len(level))
		for i, e := range level {
			rects[i] = e.Rect
		}
		order := STROrder(rects, fanout)
		packed := make([]Entry, 0, len(order)/fanout+1)
		for start := 0; start < len(order); start += fanout {
			tile := order[start:min(start+fanout, len(order))]
			n := &Node{Leaf: leaf, Rects: make([]geom.Rect, len(tile)), Refs: make([]int64, len(tile))}
			for i, j := range tile {
				n.Rects[i], n.Refs[i] = level[j].Rect, level[j].ID
			}
			id, err := s.Write(NoNode, n)
			if err != nil {
				return Header{}, err
			}
			packed = append(packed, Entry{Rect: mbr(n), ID: id})
		}
		h.Height++
		if len(packed) == 1 {
			h.Root = packed[0].ID
			return h, nil
		}
		level, leaf = packed, false
	}
}

// STROrder returns the indices of rects permuted into Sort-Tile-Recursive
// order with the given tile capacity: the exact ordering BulkLoad packs
// nodes in, exposed so a range partitioner (internal/cluster) can cut the
// same spatially coherent tiles into shards. capacity controls tile
// granularity; a partitioner slicing the returned order into N contiguous
// runs gets shards whose MBRs overlap no more than the tree's own leaves do.
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
		strTile(idx[start:min(start+slabSize, len(idx))], centers, d+1, dim, capacity)
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

// mbr returns the union of a non-empty node's rectangles, in corners of
// its own (one array for both).
//
//nnc:hotpath
func mbr(n *Node) geom.Rect {
	//nnc:allow hotpath-alloc: the result, which the parent node keeps; nothing else is built on the way to it
	return mbrIn(make(geom.Point, 2*n.Rects[0].Dim()), n)
}

// cornerSource is a Store that also hands out the corners of the MBRs
// Insert and Delete compute for the parents of the nodes they write:
// storage that lives as long as the nodes its Read returns
// (internal/diskrtree's writer arena). From any other store each such MBR
// has corners of its own.
type cornerSource interface {
	Corners(n int) []float64
}

// corners returns n floats for the corners of a rectangle a parent keeps:
// from s when s is a cornerSource, else of their own.
//
//nnc:hotpath
func corners(s Store, n int) []float64 {
	if cs, ok := s.(cornerSource); ok {
		return cs.Corners(n)
	}
	//nnc:allow hotpath-alloc: the result, which the parent node keeps; nothing else is built on the way to it
	return make([]float64, n)
}

// parentRect returns n's MBR for the entry its parent keeps, rescanned from
// n's entries.
//
//nnc:hotpath
func parentRect(s Store, n *Node) geom.Rect {
	return mbrIn(corners(s, 2*n.Rects[0].Dim()), n)
}

// grown returns old ∪ r, the rectangle a parent keeps for a node whose
// entries gained r below them (Guttman's AdjustTree): old itself when the
// union leaves every bound's bits as they are, else the union in fresh
// corners. Bounds are combined with min and max, which are exact and treat
// −0 as below +0, so when old is the exact MBR of the node's entries the
// result is the bits a rescan of the grown node would give.
//
//nnc:hotpath
func grown(s Store, old, r geom.Rect) geom.Rect {
	for i := range old.Lo {
		if math.Float64bits(min(old.Lo[i], r.Lo[i])) != math.Float64bits(old.Lo[i]) ||
			math.Float64bits(max(old.Hi[i], r.Hi[i])) != math.Float64bits(old.Hi[i]) {
			d := old.Dim()
			c := corners(s, 2*d)
			g := geom.Rect{Lo: c[:d:d], Hi: c[d : 2*d : 2*d]}
			copy(g.Lo, old.Lo)
			copy(g.Hi, old.Hi)
			g.Expand(r)
			return g
		}
	}
	return old
}

// strictlyInside reports whether r lies strictly inside out on every side:
// then each bound of out is attained by some rectangle other than r, and
// removing r from the rectangles out bounds leaves out their exact MBR.
func strictlyInside(r, out geom.Rect) bool {
	for i := range r.Lo {
		if !(r.Lo[i] > out.Lo[i] && r.Hi[i] < out.Hi[i]) {
			return false
		}
	}
	return true
}

// mbrIn is mbr into corners, which holds 2·dim floats.
//
//nnc:hotpath
func mbrIn(c []float64, n *Node) geom.Rect {
	d := n.Rects[0].Dim()
	r := geom.Rect{Lo: c[:d:d], Hi: c[d : 2*d : 2*d]}
	copy(r.Lo, n.Rects[0].Lo)
	copy(r.Hi, n.Rects[0].Hi)
	for _, s := range n.Rects[1:] {
		r.Expand(s)
	}
	return r
}

// --- Insertion ---------------------------------------------------------------

// crumb is one step of a root-to-leaf descent: the node read at id and the
// index of the child taken from it (-1 at the leaf).
type crumb struct {
	id    NodeID
	n     *Node
	child int
}

// Insert adds e to the tree h describes (Guttman's algorithm): descend by
// ChooseSubtree remembering the path, then write the path back bottom-up,
// splitting a node that overflows fanout and growing a new root when the
// split reaches the top. Every node on the path is written exactly once,
// leaf first, a split sibling right after the node it was split from. The
// rectangle a parent keeps for a path node that did not split is the one
// it kept before, grown by e (AdjustTree): whatever happened below it, the
// node's entries now bound exactly its old entries and e.
func Insert(s Store, h *Header, fanout int, e Entry) error {
	var stack [8]crumb // the descent of a tree up to 8 levels, on the stack
	path := stack[:0]
	for cur := h.Root; ; {
		n, err := s.Read(cur)
		if err != nil {
			return err
		}
		if n.Leaf {
			n.Rects, n.Refs = append(n.Rects, e.Rect), append(n.Refs, e.ID)
			path = append(path, crumb{id: cur, n: n, child: -1})
			break
		}
		i := ChooseSubtree(n.Rects, e.Rect)
		path = append(path, crumb{id: cur, n: n, child: i})
		cur = n.Refs[i]
	}
	var a, b Entry // the node just written and, when split, its new sibling
	split := false
	for i := len(path) - 1; i >= 0; i-- {
		c := path[i]
		if c.child >= 0 {
			c.n.Rects[c.child], c.n.Refs[c.child] = a.Rect, a.ID
			if split {
				c.n.Rects, c.n.Refs = append(c.n.Rects, b.Rect), append(c.n.Refs, b.ID)
			}
		}
		var rect geom.Rect // what c's parent keeps for c; nothing keeps the root's
		if i > 0 {
			rect = path[i-1].n.Rects[path[i-1].child]
		}
		var err error
		if a, b, split, err = writeSplitting(s, c.id, c.n, fanout, rect, e.Rect); err != nil {
			return err
		}
	}
	h.Root = a.ID
	if split {
		root, err := s.Write(NoNode, &Node{Rects: []geom.Rect{a.Rect, b.Rect}, Refs: []int64{a.ID, b.ID}})
		if err != nil {
			return err
		}
		h.Root = root
		h.Height++
	}
	h.Size++
	return nil
}

// writeSplitting persists a node that may have outgrown fanout and returns
// the parent entry it now needs — two of them, after a QuadraticSplit,
// when it had. rect is the rectangle n's parent kept for it before r was
// added below it; a node that does not split gets rect grown by r, and
// the root (rect empty) no rectangle at all. Split halves are rescanned.
func writeSplitting(s Store, old NodeID, n *Node, fanout int, rect, r geom.Rect) (a, b Entry, split bool, err error) {
	if len(n.Rects) <= fanout {
		a.ID, err = s.Write(old, n)
		if rect.Lo != nil {
			a.Rect = grown(s, rect, r)
		}
		return a, b, false, err
	}
	groupA, groupB := QuadraticSplit(n.Rects, minFill(fanout))
	na, nb := pick(n, groupA), pick(n, groupB)
	if a.ID, err = s.Write(old, na); err != nil {
		return a, b, false, err
	}
	if b.ID, err = s.Write(NoNode, nb); err != nil {
		return a, b, false, err
	}
	a.Rect, b.Rect = parentRect(s, na), parentRect(s, nb)
	return a, b, true, nil
}

// pick returns a node of n's kind holding n's entries at the given
// indices, in that order.
func pick(n *Node, idx []int) *Node {
	out := &Node{Leaf: n.Leaf, Rects: make([]geom.Rect, len(idx)), Refs: make([]int64, len(idx))}
	for i, j := range idx {
		out.Rects[i], out.Refs[i] = n.Rects[j], n.Refs[j]
	}
	return out
}

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
			rectA.Expand(rects[i])
		} else {
			groupB = append(groupB, i)
			rectB.Expand(rects[i])
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
			d := rects[i].UnionArea(rects[j]) - rects[i].Area() - rects[j].Area()
			if d > worst {
				sa, sb, worst = i, j, d
			}
		}
	}
	return sa, sb
}

// --- Deletion ----------------------------------------------------------------

// Delete removes the entry with e.ID whose stored rectangle equals e.Rect
// and reports whether it was there. The path to its leaf is condensed
// bottom-up — a non-root node left under minFill is dissolved, its
// subtree's entries queued and its nodes freed; a survivor is written back
// with its parent's rectangle tightened — the root shrinks while it is an
// internal node with one child, and the queued entries are reinserted. A
// survivor's rectangle is kept as it was when e lay strictly inside it and
// nothing dissolved below it, since then e attained none of its bounds;
// otherwise it is rescanned.
func Delete(s Store, h *Header, fanout int, e Entry) (bool, error) {
	path, at, err := findLeaf(s, h.Root, e, nil)
	if err != nil || path == nil {
		return false, err
	}
	leaf := path[len(path)-1].n
	leaf.Rects = slices.Delete(leaf.Rects, at, at+1)
	leaf.Refs = slices.Delete(leaf.Refs, at, at+1)

	var orphans []Entry
	dissolved := false
	for i := len(path) - 1; i >= 1; i-- {
		c, parent := path[i], path[i-1]
		j := parent.child
		if len(c.n.Rects) < minFill(fanout) {
			if orphans, err = dissolve(s, c.n, orphans); err != nil {
				return false, err
			}
			s.Free(c.id)
			parent.n.Rects = slices.Delete(parent.n.Rects, j, j+1)
			parent.n.Refs = slices.Delete(parent.n.Refs, j, j+1)
			dissolved = true
			continue
		}
		id, err := s.Write(c.id, c.n)
		if err != nil {
			return false, err
		}
		if dissolved || !strictlyInside(e.Rect, parent.n.Rects[j]) {
			parent.n.Rects[j] = parentRect(s, c.n)
		}
		parent.n.Refs[j] = id
	}

	root := path[0].n
	if h.Root, err = s.Write(path[0].id, root); err != nil {
		return false, err
	}
	for !root.Leaf && len(root.Refs) == 1 {
		child := root.Refs[0]
		s.Free(h.Root)
		h.Root = child
		h.Height--
		if root, err = s.Read(h.Root); err != nil {
			return false, err
		}
	}
	if !root.Leaf && len(root.Refs) == 0 {
		// Every child dissolved: the tree restarts from an empty leaf.
		s.Free(h.Root)
		if h.Root, err = s.Write(NoNode, &Node{Leaf: true}); err != nil {
			return false, err
		}
		h.Height = 1
	}

	// Insert counts each entry it adds, so take the orphans out of the
	// size along with the deleted entry first.
	h.Size -= 1 + len(orphans)
	for _, o := range orphans {
		if err := Insert(s, h, fanout, o); err != nil {
			return false, err
		}
	}
	return true, nil
}

// findLeaf locates the leaf holding e by descending every child whose
// rectangle contains e.Rect, returning the descent path and the entry's
// index in the leaf, or a nil path when e is absent.
func findLeaf(s Store, id NodeID, e Entry, prefix []crumb) ([]crumb, int, error) {
	n, err := s.Read(id)
	if err != nil {
		return nil, 0, err
	}
	for i, r := range n.Rects {
		if n.Leaf {
			if n.Refs[i] == e.ID && r.Equal(e.Rect) {
				return append(prefix, crumb{id: id, n: n, child: -1}), i, nil
			}
		} else if r.ContainsRect(e.Rect) {
			path, at, err := findLeaf(s, n.Refs[i], e, append(prefix, crumb{id: id, n: n, child: i}))
			if err != nil || path != nil {
				return path, at, err
			}
		}
	}
	return nil, 0, nil
}

// dissolve appends every leaf entry under n to out and frees n's
// descendants; n's own id is the caller's to free.
func dissolve(s Store, n *Node, out []Entry) ([]Entry, error) {
	for i, ref := range n.Refs {
		if n.Leaf {
			out = append(out, Entry{Rect: n.Rects[i], ID: ref})
			continue
		}
		child, err := s.Read(ref)
		if err != nil {
			return out, err
		}
		if out, err = dissolve(s, child, out); err != nil {
			return out, err
		}
		s.Free(ref)
	}
	return out, nil
}
