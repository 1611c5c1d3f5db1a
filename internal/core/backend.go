package core

import (
	"context"

	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
)

// Index is the memory-resident Backend: nodes are rtree.NodeIDs carried in
// NodeRef.ID, object references resolve eagerly (ObjRef.Obj is always
// set), and storage counters are identically zero.
var _ Backend = (*Index)(nil)

// Root returns the global R-tree root.
func (idx *Index) Root() (NodeRef, error) {
	return NodeRef{ID: uint64(idx.tree.Root())}, nil
}

// Expand visits the children of an in-memory R-tree node: object entries
// of a leaf, subtree nodes otherwise.
func (idx *Index) Expand(n NodeRef, visit func(BackendEntry)) error {
	node := idx.tree.Node(rtree.NodeID(n.ID))
	for i, rect := range node.Rects {
		if node.Leaf {
			visit(BackendEntry{Rect: rect, Obj: ObjRef{Obj: idx.Object(int(node.Refs[i]))}})
		} else {
			visit(BackendEntry{Rect: rect, IsNode: true, Node: NodeRef{ID: uint64(node.Refs[i])}})
		}
	}
	return nil
}

// Resolve returns the eagerly-resolved object.
func (idx *Index) Resolve(r ObjRef) (*uncertain.Object, error) { return r.Obj, nil }

// AccessStats reports zero: the memory backend performs no storage I/O.
func (idx *Index) AccessStats() IOStats { return IOStats{} }

// DenseIDSpanner is retired: no backend implements it and the engine asks
// no backend for it, since a search holds each object's summary by handle
// whatever the object's ID. The type stays only because the frozen
// bench/trace.go asserts it, and leaves with the next benchmark PR.
type DenseIDSpanner interface {
	DenseIDSpan() int
}

// SearchKCtx is the full search call on the in-memory index — k, filters,
// metric and OnCandidate all ride in the arguments. The traversal
// aborts at the next heap pop or candidate emission once ctx is canceled,
// returning the partial Result together with ctx.Err(). k must be >= 1.
func (idx *Index) SearchKCtx(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	return SearchBackend(ctx, idx, q, op, k, opts)
}
