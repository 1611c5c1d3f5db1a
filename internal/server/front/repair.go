package front

// Repair: a kept answer that a write may change is rebuilt in place
// instead of being evicted, from what its entry kept, with no tree search.
//
// Each kept entry carries a basis: the epoch base, a spare s ≥ 0, and a set
// B of objects of the dataset D₀ at that epoch that holds its
// (k+s)-skyband — stored as the current answer plus out, the members of B
// the answer leaves out. The door logs the objects inserted through it that
// are still live, with the epoch each insert published (insertLog). Then
// the current dataset is
//
//	D = (D₀ − X) ∪ I,
//
// I the live inserts since base and X the deleted objects of D₀. Deleting
// an object outside B leaves it holding the (k+s)-skyband: the object has
// k+s dominators, which by transitivity dominate everything it dominates,
// so it lifts nothing. Deleting a member of B leaves B less it holding the
// (k+s−1)-skyband of what is left — an object with fewer than k+s−1
// dominators there has fewer than k+s in D₀ — so each such delete spends
// one of the spare; with none left it evicts. While s ≥ 0, B ∪ I holds the
// k-skyband of D and lies in D; a dominator of a k-skyband member is itself
// a member (transitivity of the operators), so every member keeps its
// dominators in B ∪ I and every other object k of them, and
//
//	k-skyband(D) = k-skyband(B ∪ I)
//
// with every candidate's dominator count exact — the merge invariant of
// core/merge.go. core.MergeShardBands over B ∪ I is therefore the fresh
// answer, candidate for candidate: same IDs, ranks, MinDist bits and
// counts, in the same order except possibly within a batch of equal keys
// (the merge's one caveat).
//
// A fill's basis is its own answer, with no spare — unless that answer
// holds objects the door inserted, which insert-then-delete churn deletes
// again. Then the fill runs a second search, at k+s for those s objects,
// and keeps its candidates beyond the answer as out: the deletes of its own
// inserts cannot evict it.
//
// So a sweep queues an entry for repair when an insert is not ruled out by
// its shield, or a delete removes a candidate inserted after the base, or
// a member of B while the spare lasts; the merge runs outside the shard
// locks, under the mutation mutex, and the entry is re-shielded, re-tagged
// and installed before the new epoch is published — if it is still the
// table's. A delete of a member of B with no spare left may lift into the
// k-skyband objects outside B ∪ I, so no merge can answer it: it evicts,
// and so do
//
//   - a merged answer with two candidates at one MinDist: their order may
//     differ from a fresh search's;
//   - a basis older than an insert the log has forgotten (it holds
//     maxInserts), or whose key names a metric the door cannot rebuild.
//
// A kept answer whose basis is exactly itself — no spare, no object
// inserted since the base joined it, none pushed out — is the k-skyband of
// the dataset at every epoch it survives, so the sweep moves its base
// forward (cache.go): its repairs merge only the inserts since the last
// write it survived.

import (
	"context"
	"slices"
	"sync"

	"spatialdom/internal/core"
	"spatialdom/internal/uncertain"
)

// maxInserts bounds the insert log; a basis older than the newest insert
// the log has dropped can no longer be repaired.
const maxInserts = 256

// insertLog is the live objects inserted through the door, in insert
// order, with the epoch each insert published. floor is the epoch of the
// newest insert dropped to keep the bound: every insert after floor is
// still in the log, or deleted. Only the holder of the door's mutation
// mutex changes the log, under mu; fills read it under mu, repairs under
// the mutation mutex alone.
type insertLog struct {
	mu    sync.Mutex
	objs  []*uncertain.Object
	born  []uint64
	floor uint64
}

// add logs o, inserted at epoch, forgetting the oldest insert when full.
func (l *insertLog) add(o *uncertain.Object, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.objs) == maxInserts {
		l.floor = l.born[0]
		l.objs, l.born = slices.Delete(l.objs, 0, 1), slices.Delete(l.born, 0, 1)
	}
	l.objs = append(l.objs, o)
	l.born = append(l.born, epoch)
}

// remove forgets a deleted object and returns the epoch of its insert, 0
// when the log does not hold it.
func (l *insertLog) remove(id int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.index(id)
	if i < 0 {
		return 0
	}
	born := l.born[i]
	l.objs, l.born = slices.Delete(l.objs, i, i+1), slices.Delete(l.born, i, i+1)
	return born
}

// count is how many of cands the log holds.
func (l *insertLog) count(cands []core.Candidate) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range cands {
		if l.index(c.Object.ID()) >= 0 {
			n++
		}
	}
	return n
}

// bornOf is the epoch of a logged object's insert, 0 when the log does
// not hold it.
func (l *insertLog) bornOf(id int) uint64 {
	if i := l.index(id); i >= 0 {
		return l.born[i]
	}
	return 0
}

// index is the position of the logged object id, -1 when there is none.
func (l *insertLog) index(id int) int {
	return slices.IndexFunc(l.objs, func(o *uncertain.Object) bool { return o.ID() == id })
}

// since is the logged objects inserted after epoch.
func (l *insertLog) since(epoch uint64) []*uncertain.Object {
	i := len(l.born)
	for i > 0 && l.born[i-1] > epoch {
		i--
	}
	return l.objs[i:]
}

// widen gives a fill's basis a spare when its answer res holds objects
// the door inserted: a search at k plus their number, whose candidates
// beyond the answer become out. It returns a spare of 0 when the answer
// holds none, or the wider search fails. The search runs under the fill's
// pending entry, so a write between it and the fill keeps neither.
func (d *Door) widen(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions, res *core.Result) (out []*uncertain.Object, spare int) {
	s := d.inserts.count(res.Candidates)
	if s == 0 {
		return nil, 0
	}
	opts.OnCandidate = nil // the client had its candidates from the first search
	wide, err := d.inner.SearchKCtx(ctx, q, op, k+s, opts)
	if err != nil || wide.Incomplete {
		return nil, 0
	}
	for _, c := range wide.Candidates {
		if !answers(res, c.Object.ID()) {
			out = append(out, c.Object)
		}
	}
	return out, s
}

// repaired is a rebuilt answer with its new basis, ready to install.
type repaired struct {
	res    *core.Result
	shield *core.AnswerShield
	out    []*uncertain.Object
	spare  int32
	joined bool
	base   uint64
	cost   int64
}

// repairQueued rebuilds every entry the sweep for m queued and installs
// each at newTag, or evicts it when it cannot be rebuilt exactly. The
// caller holds mutMu.
func (d *Door) repairQueued(m mutation, newTag uint64) {
	c := d.cache
	for i, e := range c.queue {
		c.queue[i] = nil
		c.install(e, d.rebuild(e, m, newTag), newTag)
	}
	c.queue = c.queue[:0]
}

// rebuild makes e's answer at newTag, re-shielded and sized. It is nil
// when that answer cannot be trusted to be the fresh search's (see the
// file header).
func (d *Door) rebuild(e *entry, m mutation, newTag uint64) *repaired {
	q, op, k, opts, ok := e.key.query()
	if !ok {
		return nil
	}
	r := d.merge(e, m, q, op, k, opts, newTag)
	if r == nil {
		return nil
	}
	r.res.Candidates = exact(r.res.Candidates)
	r.shield = core.NewAnswerShield(q, op, opts.Metric, k, r.res.Candidates)
	r.cost = entryCost(e.key, len(e.alias), r.res, r.shield, len(r.out))
	return r
}

// merge rebuilds e's answer from its basis and the live inserts since its
// base, less the object m deletes, and works out the new basis: the base
// members the answer leaves out, the spare, and whether an insert joined
// it.
func (d *Door) merge(e *entry, m mutation, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions, newTag uint64) *repaired {
	kept := make([]*uncertain.Object, 0, len(e.res.Candidates)+len(e.out))
	for _, c := range e.res.Candidates {
		kept = append(kept, c.Object)
	}
	kept = append(kept, e.out...)
	if m.delete {
		kept = slices.DeleteFunc(kept, func(o *uncertain.Object) bool { return o.ID() == m.id })
	}
	res, err := core.MergeShardBands(context.Background(), q, op, k, opts, [][]*uncertain.Object{kept, d.inserts.since(e.base)})
	if err != nil || tied(res.Candidates) {
		return nil
	}
	r := &repaired{res: res, base: e.base, spare: e.spare}
	if m.delete && m.born <= e.base {
		r.spare-- // m took a member of the basis
	}
	for _, c := range res.Candidates {
		if d.inserts.bornOf(c.Object.ID()) > e.base {
			r.joined = true
			break
		}
	}
	// The base members left out: the kept objects not inserted since the
	// base (each once — the candidates and out are disjoint) and not
	// answered.
	for _, o := range kept {
		if d.inserts.bornOf(o.ID()) <= e.base && !answers(res, o.ID()) {
			r.out = append(r.out, o)
		}
	}
	if !r.joined && r.out == nil && r.spare == 0 {
		r.base = newTag
	}
	return r
}

// tied reports whether two candidates share a MinDist.
func tied(cands []core.Candidate) bool {
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if cands[i].MinDist == cands[j].MinDist {
				return true
			}
		}
	}
	return false
}

// answers reports whether res holds the object id.
func answers(res *core.Result, id int) bool {
	for _, c := range res.Candidates {
		if c.Object.ID() == id {
			return true
		}
	}
	return false
}
