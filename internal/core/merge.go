package core

// Cross-shard merge for the scatter-gather router (internal/cluster).
//
// Merge invariant. Partition the dataset D into shards D_1..D_N. For any
// query Q, operator, and k, let band_i be the k-skyband of D_i (the
// objects of D_i with fewer than k dominators within D_i) and let
// U = band_1 ∪ .. ∪ band_N. Then
//
//	k-skyband(D) = k-skyband(U),
//
// and every emitted candidate's dominator count over U equals its count
// over D. Proof sketch, resting on the same transitivity chain that makes
// Algorithm 1 correct (Section 5.2 / Theorem 4 of the paper):
//
//  1. Containment. If V ∈ k-skyband(D) then V has < k dominators in all
//     of D, hence < k within its own shard, so V ∈ U. Conversely an
//     object with ≥ k dominators in D cannot enter k-skyband(U) —
//     order V's dominator poset by any linear extension; its first k
//     elements each have < k dominators themselves (a dominator of a
//     dominator of X dominates X by transitivity, so anything dominating
//     one of the first k would precede it), hence all k are global — and
//     therefore per-shard — skyband members, i.e. they are all in U.
//  2. Exact counts. The same argument shows every dominator of an
//     emitted candidate is itself in U: a dominator W of V satisfies
//     min(W_Q) ≤ min(V_Q) (statistic necessity) and, were W outside U,
//     W would have ≥ k dominators in its shard, which by transitivity
//     all dominate V too — contradicting V's < k count. So counting
//     over U counts exactly the dominators counted over D.
//
// Determinism. It is the engine: MergeShardBands presents U as a flat
// one-node Backend and runs SearchBackend over it, so keys, tie batches,
// dominator counts, OnCandidate and cancellation are the
// single-node code path, not a copy of it. The merged Result therefore
// equals the single-node Result candidate-for-candidate — same IDs, ranks,
// MinDist bits and Dominators — except possibly emission order *within* an
// exact-key tie batch (heap pop order over a different tree shape), which
// has measure zero on continuous workloads and never changes a count.

import (
	"context"
	"sync"

	"spatialdom/internal/uncertain"
)

// flatBackend is the deduplicated union of shard bands as a Backend: the
// root is the only node, its children are every union object (already
// resolved), and there is no storage to account for.
type flatBackend []*uncertain.Object

func (f flatBackend) Root() (NodeRef, error) { return NodeRef{}, nil }

func (f flatBackend) Expand(_ NodeRef, visit func(BackendEntry)) error {
	for _, o := range f {
		visit(BackendEntry{Rect: o.MBR(), Obj: ObjRef{Obj: o}})
	}
	return nil
}

func (f flatBackend) Resolve(r ObjRef) (*uncertain.Object, error) { return r.Obj, nil }

func (f flatBackend) AccessStats() IOStats { return IOStats{} }

// mergeScratch is the union a merge builds, pooled: the objects and the
// IDs already in it. Nothing of it outlives the merge — the Result holds
// the candidates' objects, not the union.
type mergeScratch struct {
	union flatBackend
	seen  map[int]struct{}
}

var mergePool = sync.Pool{New: func() any { return &mergeScratch{seen: make(map[int]struct{})} }}

// MergeShardBands computes the global k-skyband from per-shard k-skyband
// candidate sets by running the engine over their union (see the file
// header for the invariant and its proof sketch). bands holds one slice
// per responding shard; objects are deduplicated by ID, so hedged
// duplicate answers are harmless. ctx and opts.OnCandidate behave as in
// SearchBackend. Stats.ObjectPrunes + Examined is the size of
// the deduplicated union.
func MergeShardBands(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions, bands [][]*uncertain.Object) (*Result, error) {
	ms := mergePool.Get().(*mergeScratch)
	defer func() {
		clear(ms.union)
		ms.union = ms.union[:0]
		clear(ms.seen)
		mergePool.Put(ms)
	}()
	for _, band := range bands {
		for _, o := range band {
			if o == nil {
				continue
			}
			if _, dup := ms.seen[o.ID()]; dup {
				continue
			}
			ms.seen[o.ID()] = struct{}{}
			ms.union = append(ms.union, o)
		}
	}
	return SearchBackend(ctx, &ms.union, q, op, k, opts)
}
