package front

// Repair: a kept answer that a write may change is stepped to its new value
// in place instead of being evicted, from what its entry tracks, with no
// tree search.
//
// Each kept entry carries a basis: the epoch base, a spare s ≥ 0, and a set
// B of objects of the dataset D₀ at that epoch that holds its
// (k+s)-skyband. The door logs the objects inserted through it that are
// still live, with the epoch each insert published (insertLog). Then the
// current dataset is
//
//	D = (D₀ − X) ∪ I,
//
// I the live inserts since base and X the deleted objects of D₀. Deleting
// an object outside B leaves it holding the (k+s)-skyband: the object has
// k+s dominators, which by transitivity dominate everything it dominates,
// so it lifts nothing. Deleting a member of B leaves B less it holding the
// (k+s−1)-skyband of what is left — an object with fewer than k+s−1
// dominators there has fewer than k+s in D₀ — so each such delete spends
// one of the spare; with none left it evicts. While s ≥ 0 the union
// U = (B − X) ∪ I holds the k-skyband of D and lies in D; a dominator of a
// k-skyband member is itself a member (transitivity of the operators), so
//
//	k-skyband(D) = k-skyband(U)
//
// with every candidate's dominator count over U exact — the merge
// invariant of core/merge.go.
//
// The entry tracks U itself: the answer's candidates, and out, the other
// members, each with its exact dominator count over the tracked set (outDom;
// a candidate's is its Dominators). A write changes only the pairs that
// hold the written object, so core.StepBand folds it in: an insert is
// checked once against each member, in the direction key order allows, and
// a delete against the members after it in key order, whose counts it
// lowers. The members with fewer than k dominators are the fresh answer,
// candidate for candidate. An insert the entry's shield rules out, or that
// core.StepRejects finds outside the answer, is not folded then: k tracked
// objects dominate it, so it changes no candidate and no candidate's count,
// and it waits in the log. Only out counts miss it, and the next delete
// repair folds, before it lowers a count, every insert logged after base
// that the entry does not track; an insert repair folds only its own
// object.
//
// A fill's basis is its own answer, with no spare — unless that answer
// holds objects the door inserted, which insert-then-delete churn deletes
// again. Then the fill runs a second search, at k+s for those s objects,
// and tracks its candidates beyond the answer as out, with the counts that
// search reports: the deletes of its own inserts cannot evict it.
//
// So a sweep queues an entry for repair when an insert is not ruled out by
// its shield, or a delete removes a tracked object inserted after the base,
// or a member of B while the spare lasts; the step runs outside the shard
// locks, under the mutation mutex, and the entry is re-shielded, re-tagged
// and installed before the new epoch is published — if it is still the
// table's. The entry is evicted instead when
//
//   - a delete takes a member of B with no spare left: objects outside U
//     may lift into the k-skyband (the sweep decides this one);
//   - its base is older than an insert the log has forgotten (it holds
//     maxInserts), so I is no longer known, or its key names a metric the
//     door cannot rebuild — Door.rebuild decides these before it steps.
//
// A repair rebases an entry — its answer becomes its whole basis, at the
// repair's epoch — once the spare is spent and no candidate is an insert
// since the base: a delete can then only evict or take an out member,
// which lifts nothing, so out is dropped.

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
// order, with the epoch each insert published, and that epoch by ID. floor
// is the epoch of the newest insert dropped to keep the bound: every insert
// after floor is still in the log, or deleted. Only the holder of the
// door's mutation mutex changes the log, under mu; fills read it under mu,
// and repairs, which hold the mutation mutex, may read it without.
type insertLog struct {
	mu    sync.Mutex
	objs  []*uncertain.Object
	born  []uint64 // ascending: each insert publishes its own epoch
	at    map[int]uint64
	floor uint64
}

// add logs o, inserted at epoch, forgetting the oldest insert when full.
func (l *insertLog) add(o *uncertain.Object, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.at == nil {
		l.at = make(map[int]uint64, maxInserts)
	}
	if len(l.objs) == maxInserts {
		l.floor = l.born[0]
		delete(l.at, l.objs[0].ID())
		l.objs, l.born = slices.Delete(l.objs, 0, 1), slices.Delete(l.born, 0, 1)
	}
	l.objs = append(l.objs, o)
	l.born = append(l.born, epoch)
	l.at[o.ID()] = epoch
}

// remove forgets a deleted object and returns the epoch of its insert, 0
// when the log does not hold it.
func (l *insertLog) remove(id int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	born, ok := l.at[id]
	if !ok {
		return 0
	}
	i, _ := slices.BinarySearch(l.born, born)
	delete(l.at, id)
	l.objs, l.born = slices.Delete(l.objs, i, i+1), slices.Delete(l.born, i, i+1)
	return born
}

// after is how many of cands the log holds inserted after epoch; after
// epoch 0, how many it holds at all.
func (l *insertLog) after(cands []core.Candidate, epoch uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range cands {
		if l.at[c.Object.ID()] > epoch {
			n++
		}
	}
	return n
}

// since is the logged objects inserted after epoch.
func (l *insertLog) since(epoch uint64) []*uncertain.Object {
	i, _ := slices.BinarySearch(l.born, epoch+1)
	return l.objs[i:]
}

// widen gives a fill's basis a spare when its answer res holds objects
// the door inserted: a search at k plus their number, whose candidates
// beyond the answer become out, with their counts. It returns a spare of 0
// when the answer holds none, or the wider search fails. The search runs
// under the fill's pending entry, so a write between it and the fill keeps
// neither.
func (d *Door) widen(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions, res *core.Result) (out []*uncertain.Object, outDom []int32, spare int32) {
	s := d.inserts.after(res.Candidates, 0)
	if s == 0 {
		return nil, nil, 0
	}
	opts.OnCandidate = nil // the client had its candidates from the first search
	wide, err := d.inner.SearchKCtx(ctx, q, op, k+s, opts)
	if err != nil || wide.Incomplete {
		return nil, nil, 0
	}
	for _, c := range wide.Candidates {
		if !answers(res, c.Object.ID()) {
			out = append(out, c.Object)
			outDom = append(outDom, int32(c.Dominators))
		}
	}
	return out, outDom, int32(s)
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

// rebuild steps e's tracked set by m, and returns the kept answer at
// newTag, re-shielded and sized, with its new basis. It is nil when that
// answer cannot be trusted to be the fresh search's (see the file header):
// the key names a metric the door cannot rebuild, or the log has forgotten
// an insert since the base, so the inserts the basis stands for are no
// longer known.
//
// An insert repair folds in m's object alone, and not even that when
// core.StepRejects finds it outside the answer. Each insert the shield
// passed over, or StepRejects did, has k dominators among the tracked
// objects, which stay tracked until a delete repair folds it, so it is
// outside the answer and dominates no candidate; only out counts wait for
// it. A delete repair folds them all before the delete lowers a count.
func (d *Door) rebuild(e *entry, m mutation, newTag uint64) *kept {
	q, op, k, opts, ok := e.key.query()
	if !ok || e.base < d.inserts.floor {
		return nil
	}
	r := e.kept
	// An insert outside the answer, with k tracked dominators, waits
	// unfolded, as if the shield had passed it over.
	if m.delete || !core.StepRejects(q, op, k, opts, e.res.Candidates, d.inserts.since(newTag - 1)[0]) {
		d.step(e, m, newTag, q, op, k, opts, &r)
	}
	// With no spare left, a delete of a member of the basis evicts; so
	// unless a candidate is an insert since the base, whose delete repairs,
	// nothing can lift out a member, and the answer is a basis of its own.
	// The base is at or above the log's floor, so the log names every such
	// insert that is still live.
	if r.spare == 0 && d.inserts.after(r.res.Candidates, e.base) == 0 {
		r.base, r.out, r.outDom = newTag, nil, nil
	}
	if r.res != e.res {
		r.res.Candidates = exact(r.res.Candidates)
		r.shield = core.NewAnswerShield(q, op, opts.Metric, k, r.res.Candidates)
	}
	r.bytes = entryCost(e.key, len(e.alias), &r)
	return &r
}

// step folds m into r, e's basis, by core.StepBand: m's object joins or
// leaves, and a delete also folds every insert still unfolded.
//
// The unfolded inserts are the live ones logged after the base that e does
// not hold. A delete repair folds every insert logged after the base into
// the tracked set, and nothing but the insert's own delete takes it out
// again — a drop only ever removes the deleted object, and a rebase moves
// the base past it — so every live insert logged after the base that an
// earlier delete repair saw is tracked.
func (d *Door) step(e *entry, m mutation, newTag uint64, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions, r *kept) {
	var drop []int
	adds := d.inserts.since(newTag - 1)
	if m.delete {
		drop = []int{m.id}
		adds = nil
		for _, o := range d.inserts.since(e.base) {
			if !e.holds(o.ID()) {
				adds = append(adds, o)
			}
		}
		if m.born <= e.base {
			r.spare-- // m took a member of the basis
		}
	}
	band, res := core.StepBand(q, op, k, opts, core.TrackedBand{Answer: e.res.Candidates, Out: e.out, OutDominators: e.outDom}, adds, drop)
	r.res, r.out, r.outDom = res, band.Out, band.OutDominators
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
