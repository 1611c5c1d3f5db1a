package core

// Cross-shard merge for the scatter-gather router (internal/cluster), and
// the step that folds single writes into a kept band (StepBand, the front
// door's repair), both resting on one invariant.
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
// MinDist bits and Dominators — ties included: a search emits a tie batch
// in ID order, whatever the tree it runs over.

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

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

// TrackedBand is a kept k-skyband and the objects tracked beside it that a
// later write may lift into it. Answer is the band as a search reports it,
// in key order, each candidate's Dominators its exact count; Out holds the
// other tracked objects, and OutDominators the exact dominator count of
// each over the whole tracked set (Answer and Out), k or more.
type TrackedBand struct {
	Answer        []Candidate
	Out           []*uncertain.Object
	OutDominators []int32
}

// StepRejects reports whether inserting o leaves a band's answer exactly as
// it is: o's key exceeds every candidate's, so o dominates none of them (a
// dominator's key is never larger), and k candidates dominate o, so it is
// outside the band. It is AnswerShield.ShieldsInsert decided by the checker
// instead of by rectangles, at the cost of o's summary and one check per
// candidate, in key order, until k dominate. The answer must be in key
// order. Other objects a band tracks are not asked: o may dominate some.
func StepRejects(q *uncertain.Object, op Operator, k int, opts SearchOptions, answer []Candidate, o *uncertain.Object) bool {
	if k < 1 || len(answer) < k {
		return false
	}
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()
	c := sc.check.Checker(q, op, opts.Filters, opts.metric())
	so := c.handle(o)
	if so.stat.Min <= answer[len(answer)-1].MinDist {
		return false
	}
	n := 0
	for _, a := range answer {
		if c.sd(sc.check.newObjCache(a.Object), so) {
			if n++; n == k {
				return true
			}
		}
	}
	return false
}

// stepMember is one object of the tracked set during a step: its cache,
// its key min(U_Q) once known, and its dominator count over the set.
type stepMember struct {
	oc    *objCache
	key   float64
	keyed bool
	count int32
}

// StepBand updates a tracked band by writes: each member whose ID is in
// drop leaves the tracked set, then each object of adds joins it. A write is
// checked against the members alone, one direction per pair by key order —
// a dominator's min(U_Q) is no larger than the dominated object's, compared
// exactly (Checker.sd), so both directions are asked only at equal keys.
// An add costs one check per member, a drop one per member at or after it
// in key order; MergeShardBands would check every pair of the set again.
//
// Every count stays exact over the tracked set. So when that set is a union
// MergeShardBands merges to the fresh answer (this file's invariant; the
// front door's repair keeps one, front/repair.go), the returned Answer is
// that answer: the same IDs, ranks, MinDist bits and Dominators, in key
// order and, at one key, in ID order, as a search emits them.
//
// The returned band's slices are new; b's are only read. Out is in the
// same order. res is the answer as a Result, with the step's statistics;
// Examined is the tracked set's size.
func StepBand(q *uncertain.Object, op Operator, k int, opts SearchOptions, b TrackedBand, adds []*uncertain.Object, drop []int) (nb TrackedBand, res *Result) {
	if k < 1 {
		panic("core: StepBand requires k >= 1")
	}
	if len(b.Out) != len(b.OutDominators) {
		panic("core: StepBand needs one count per out member")
	}
	start := time.Now()
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()
	c := sc.check.Checker(q, op, opts.Filters, opts.metric())
	key := func(m *stepMember) float64 {
		if !m.keyed {
			m.key, m.keyed = c.summary(m.oc).stat.Min, true
		}
		return m.key
	}

	ms := make([]stepMember, 0, len(b.Answer)+len(b.Out)+len(adds))
	for _, a := range b.Answer {
		ms = append(ms, stepMember{oc: sc.check.newObjCache(a.Object), key: a.MinDist, keyed: true, count: int32(a.Dominators)})
	}
	for i, o := range b.Out {
		ms = append(ms, stepMember{oc: sc.check.newObjCache(o), count: b.OutDominators[i]})
	}
	for _, id := range drop {
		i := slices.IndexFunc(ms, func(m stepMember) bool { return m.oc.obj.ID() == id })
		if i < 0 {
			continue
		}
		x := ms[i]
		ms = slices.Delete(ms, i, i+1)
		xk := key(&x)
		for j := range ms {
			if y := &ms[j]; key(y) >= xk && c.sd(x.oc, y.oc) {
				y.count--
			}
		}
	}
	for _, o := range adds {
		a := stepMember{oc: c.handle(o)}
		ak := key(&a)
		for i := range ms {
			y := &ms[i]
			yk := key(y)
			if yk <= ak && c.sd(y.oc, a.oc) {
				a.count++
			}
			if ak <= yk && c.sd(a.oc, y.oc) {
				y.count++
			}
		}
		ms = append(ms, a)
	}

	for i := range ms {
		key(&ms[i])
	}
	slices.SortFunc(ms, func(a, b stepMember) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.oc.obj.ID(), b.oc.obj.ID()))
	})
	elapsed := time.Since(start)
	for i := range ms {
		m := &ms[i]
		if int(m.count) < k {
			nb.Answer = append(nb.Answer, Candidate{Object: m.oc.obj, Rank: len(nb.Answer), MinDist: m.key, Elapsed: elapsed, Dominators: int(m.count)})
		} else {
			nb.Out = append(nb.Out, m.oc.obj)
			nb.OutDominators = append(nb.OutDominators, m.count)
		}
	}
	res = &Result{Operator: op, Candidates: nb.Answer, Examined: len(ms), Stats: c.Stats, Elapsed: elapsed}
	return nb, res
}
