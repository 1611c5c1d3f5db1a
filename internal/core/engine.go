package core

// This file holds the storage-agnostic query engine: Algorithm 1
// generalized to the k-skyband, running over any Backend. The k-NN
// candidates are the objects dominated by fewer than k other objects;
// k = 1 is the paper's NNC set. For every NN function f covered by the
// operator, the top-k objects under f are guaranteed to be k-NN
// candidates: if k objects dominate V they all score no worse than V under
// f, pushing V out of the top k.
//
// Correctness of incremental counting. Any dominator of V has
// min(U_Q) <= min(V_Q) (statistic necessity), so processing objects in
// non-decreasing exact min-pair-distance order guarantees every dominator
// of V is processed no later than V. Counting dominators only among
// emitted band members suffices: ordering V's dominator poset by a linear
// extension, its first k elements each have < k dominators themselves and
// hence are band members.
//
// Ties. Objects whose exact keys coincide could pop in either order, so
// they are drained into one batch and each member counts dominators over
// band ∪ batch: a batch member's true dominators all have keys <= the
// batch key (every verdict keeps the key order exactly, Checker.sd) and
// therefore sit in the band or the batch, and any counted dominator — band
// or not — witnesses a true domination.

import (
	"context"
	"math"
	"sync"
	"time"

	"spatialdom/internal/distr"
	"spatialdom/internal/faults"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// NodeRef identifies a tree node inside a Backend by number — an
// rtree.NodeID in memory, a page id on disk. The engine treats it as
// opaque.
type NodeRef struct {
	ID uint64
}

// ObjRef identifies an object held by a Backend. Memory-resident backends
// resolve eagerly and set Obj; disk-resident backends set ID and defer
// materialization to Backend.Resolve, which is only invoked once the
// object's MBR has survived entry pruning.
type ObjRef struct {
	Obj *uncertain.Object
	ID  uint64
}

// BackendEntry is one child of an expanded tree node: a subtree when
// IsNode is set, an object reference otherwise. Rect is the child's MBR,
// used for ordering (min-distance key) and entry pruning (Theorem 4).
type BackendEntry struct {
	Rect   geom.Rect
	IsNode bool
	Node   NodeRef
	Obj    ObjRef
}

// Backend is the storage layer Algorithm 1 traverses: a global R-tree of
// object MBRs plus a way to materialize leaf references into objects. The
// in-memory Index and the disk-resident diskindex.Index are the two
// implementations; the engine is the only traversal loop either uses.
type Backend interface {
	// Root returns the root node of the global tree.
	Root() (NodeRef, error)
	// Expand enumerates the children of n in storage order. For a
	// disk-resident backend this is the point where a node page is read
	// (and counted) through the buffer pool. An entry's Rect stays valid
	// until the search that asked for it returns, not only while visit
	// runs: the engine keeps it in the heap for pop-time pruning, and a
	// wrapping backend may hold a node's entries until the inner Expand
	// has returned (bench/trace.go buffers them so that the engine's own
	// work is not billed to storage). A disk backend may decode every
	// rectangle of a search into storage it reuses once the search is over.
	Expand(n NodeRef, visit func(BackendEntry)) error
	// Resolve materializes an object reference. References whose Obj is
	// already set must resolve to it without I/O.
	Resolve(ObjRef) (*uncertain.Object, error)
	// AccessStats reports the backend's cumulative storage counters. The
	// engine records the delta across a search into Result.IO, so
	// memory-resident backends simply return the zero value.
	AccessStats() IOStats
}

// KSearcher is the context-aware search call over a whole index: *Index
// and diskindex.Index implement it, and both are safe to call from many
// goroutines at once (DESIGN.md §6).
type KSearcher interface {
	SearchKCtx(ctx context.Context, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error)
}

// IOStats reports storage access counters for one search: buffer-pool and
// page-file traffic. All fields are zero for memory-resident backends.
type IOStats struct {
	// Hits and Misses count logical page requests served from / missing
	// the buffer pool; Reads and Writes count physical page transfers.
	Hits, Misses, Reads, Writes int64
	// CacheHits and CacheEvictions are retired and always 0: the
	// decoded-object cache they counted is deleted, and a disk search
	// resolves every object through the buffer pool. The fields stay only
	// because the frozen bench/wl_disk.go reads them, and leave with the
	// next benchmark PR.
	CacheHits, CacheEvictions int64
}

// Sub returns s - o, field-wise; used to turn cumulative backend counters
// into per-search deltas.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		Hits:   s.Hits - o.Hits,
		Misses: s.Misses - o.Misses,
		Reads:  s.Reads - o.Reads,
		Writes: s.Writes - o.Writes,
	}
}

// Accesses returns the logical page accesses (pool hits + misses).
func (s IOStats) Accesses() int64 { return s.Hits + s.Misses }

// --- the search heap ---------------------------------------------------------

// heap item kinds: an R-tree node, an object keyed by an MBR lower bound,
// and an object keyed by its exact min pair distance.
type itemKind uint8

const (
	kindNode itemKind = iota
	kindObjLB
	kindObjExact
)

type searchItem struct {
	key  float64
	kind itemKind
	rect geom.Rect // node/objLB: the entry MBR, for pop-time pruning
	node NodeRef
	obj  ObjRef
	sum  *objCache // objExact: the object's summary, its handle from here on
}

// heapKey is what the search heap sifts: an item's key and the slab slot
// the item waits in. It holds no pointer, so a sift moves 16 bytes and no
// write barrier runs.
type heapKey struct {
	key  float64
	slot int32
}

// searchHeap is a plain binary min-heap of searchItems, ordered by key. It
// is deliberately a concrete type — no container/heap, no generics — so
// Push/Pop never box items through interface{}; sift order matches
// container/heap exactly (left child wins key ties), keeping emission
// order stable. The items themselves never move: each waits in a slot of
// slab while its heapKey is sifted. A popped slot is zeroed, so the slab
// pins no object, and reused before the slab grows, so the slab is as long
// as the heap has ever been, not as the search has pushed.
type searchHeap struct {
	keys []heapKey
	slab []searchItem
	free []int32 // popped slots, zeroed
}

func (h *searchHeap) len() int { return len(h.keys) }

// peekKey returns the smallest key; the heap must be non-empty.
func (h *searchHeap) peekKey() float64 { return h.keys[0].key }

//nnc:hotpath
func (h *searchHeap) push(it searchItem) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = it
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, it)
	}
	// Sift up: parents move down into the hole and x is written once, where
	// it stops — the swaps' result with half the stores.
	x := heapKey{it.key, slot}
	h.keys = append(h.keys, x)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent].key <= x.key {
			break
		}
		h.keys[i] = h.keys[parent]
		i = parent
	}
	h.keys[i] = x
}

//nnc:hotpath
func (h *searchHeap) pop() searchItem {
	slot := h.keys[0].slot
	top := h.slab[slot]
	h.slab[slot] = searchItem{} // drop references held by the vacated slot
	h.free = append(h.free, slot)
	n := len(h.keys) - 1
	x := h.keys[n] // sifted down from the root
	h.keys = h.keys[:n]
	i := 0
	for {
		small, sk := i, x.key
		if l := 2*i + 1; l < n && h.keys[l].key < sk {
			small, sk = l, h.keys[l].key
		}
		if r := 2*i + 2; r < n && h.keys[r].key < sk {
			small = r
		}
		if small == i {
			break
		}
		h.keys[i] = h.keys[small]
		i = small
	}
	if n > 0 {
		h.keys[i] = x
	}
	return top
}

// clear empties the heap, zeroing the slots still held, and keeps the
// backing arrays.
func (h *searchHeap) clear() {
	clear(h.slab)
	h.keys, h.slab, h.free = h.keys[:0], h.slab[:0], h.free[:0]
}

// --- per-search scratch ------------------------------------------------------

// searchScratch pools the engine's per-search slabs so steady-state
// searches allocate no heap, batch or band backing arrays — and, through
// the embedded CheckScratch, no checker caches, distribution atoms or
// transport state either.
type searchScratch struct {
	heap  searchHeap
	batch []searchItem
	band  band
	check CheckScratch
}

// band is the k-skyband found so far, struct-of-arrays, so that the two
// questions the sweep puts to every member are answered from contiguous
// float slabs without touching the member.
//
// "Can this member dominate the incoming object?" (dominators): next to each
// member sit the mean and max of its U_Q, and the commonest verdict — the
// statistics are not ordered — is read off them. These two slabs are
// permuted together with the members (toFront).
//
// "Does this member dominate the popped entry's rectangle?"
// (dominatesRect): far holds one row per member, of stride len(hullPts) —
// at each hull query instance q, the member's largest distance to q over
// its positive-mass instances, perQStat's Max, which depends on the member
// alone. The member is known instance by instance, so its far vector is
// read off its instances, not its MBR: never larger, since each instance
// lies in the MBR, and blind to instances of zero mass, which no
// distribution holds. It stays in insertion order: the entry test counts
// dominators up to k, whichever members they are, so it never needs to
// know which row belongs to which member. Under F+SD, whose rectangle
// predicate is not a far/near comparison, it is empty.
//
// "Can any entry left in the heap survive?" (the search's stopping test):
// radius is the k-th smallest, over members, of the member's reach — the
// largest entry of its far row — and an entry whose min-distance key
// exceeds it is dominated by k members (beyond). It is +Inf until k
// members are in, and stays +Inf under F+SD, off the Euclidean metric and
// without Filters.Geometric, where object entries are not pruned.
//
// Both tests compare distances, never their squares: the summary computes
// a distance as the square root of a sum of squares, and squaring it back
// can round below that sum. In the distance domain each step is monotone.
// A rectangle's near distance from q (Rect.MinDistPoint) is the root of
// the same sum in the same order as an instance's distance (distr.
// Summarize), with each term's gap no larger than the instance's — a
// rounded subtraction, product, sum and square root never reverse "≤" —
// so it is no larger than the distance of any instance in the rectangle,
// as the summary computed it (a term MinSqDistPoint skips adds an exact
// zero; L1's and L∞'s Dist and MinDistRect fold the same gaps by + and
// max). By the same steps a far distance (Rect.MaxDistPoint, each gap no
// smaller) is no smaller than any of them, and an entry's key
// (Rect.MinDistRect to the query's MBR) is no larger than the near
// distance from any q in that MBR. Hence far ≤ near at every hull
// instance, strictly at one, is F-SD at the hull instances in the
// summary's own floats, with strictness: exactly the MBR test's
// conclusion, which the cover chain carries to every operator but F+SD.
// And a key beyond the radius is strictly beyond every hull instance's far
// distance of k members.
type band struct {
	objs      []*objCache
	mean, max []float64
	atoms     int // the most atoms any member's U_Q has (dominators)
	far       []float64
	nearest   []float64
	radius    float64
}

// push appends the summarised object so, which c has just found to have
// fewer than k dominators.
func (b *band) push(c *Checker, so *objCache, k int) {
	b.objs = append(b.objs, so)
	b.mean = append(b.mean, so.stat.Mean)
	b.max = append(b.max, so.stat.Max)
	b.atoms = max(b.atoms, len(so.runs))
	if c.op == FPlusSD {
		return // asked member by member (dominatesRect): no far row to keep
	}
	// Not stat.Max: it skips query instances of zero probability, which
	// the hull keeps and the entry test compares at.
	reach := math.Inf(-1)
	for _, j := range c.hullIdx {
		f := so.perQStat[j].Max
		b.far = append(b.far, f)
		reach = max(reach, f)
	}
	if c.euclid && c.cfg.Geometric {
		b.nearest = keepNearest(b.nearest, k, reach)
		if len(b.nearest) == k {
			b.radius = b.nearest[k-1]
		}
	}
}

// beyond reports whether an entry keyed key lies past the band's radius, so
// that k members dominate its rectangle whatever the rectangle is.
func (b *band) beyond(key float64) bool { return key > b.radius }

// toFront moves member i to position 0, shifting the members before it.
func (b *band) toFront(i int) {
	o, mean, max := b.objs[i], b.mean[i], b.max[i]
	copy(b.objs[1:i+1], b.objs[:i])
	copy(b.mean[1:i+1], b.mean[:i])
	copy(b.max[1:i+1], b.max[:i])
	b.objs[0], b.mean[0], b.max[0] = o, mean, max
}

// clear empties the band, dropping its object references but keeping the
// backing arrays.
func (b *band) clear() {
	clear(b.objs)
	b.objs, b.mean, b.max, b.far = b.objs[:0], b.mean[:0], b.max[:0], b.far[:0]
	b.atoms = 0
	b.nearest = b.nearest[:0]
}

// dominators counts, stopping at k, the members of b[:n] that dominate the
// summarised object sv. It is Checker.sd applied to each member in band
// order with rung 1 of the verdict ladder read off the mean and max slabs:
// the members of b[:n] were examined before sv, in non-decreasing order of
// the exact key min(U_Q), so their min statistic is already known to be no
// larger than sv's and only mean and max are compared, the means under the
// distr.MeanBound of the band's largest member, which is never smaller than
// the bound Stat.LE would use (and a pair the slab lets through still meets
// every later rung). The first dominator
// found moves to the front — it tends to dominate the following objects
// too.
//
//nnc:hotpath
func (b *band) dominators(c *Checker, n int, sv *objCache, k int) int {
	found := 0
	vmax := sv.stat.Max
	vmean := sv.stat.Mean + distr.MeanBound(b.atoms+len(sv.runs), vmax)
	mean, max := b.mean[:n], b.max[:n]
	for i, u := range b.objs[:n] {
		c.Stats.DominanceChecks++
		if c.statCut && (mean[i] > vmean || max[i] > vmax) {
			c.Stats.StatPrunes++
			continue
		}
		if !c.decide(u, sv) {
			continue
		}
		found++
		if found == 1 && i > 0 {
			b.toFront(i)
		}
		if found >= k {
			break
		}
	}
	return found
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// clear empties every slot (so a recycled scratch doesn't pin objects from
// finished searches) while keeping the backing arrays for reuse.
func (sc *searchScratch) clear() {
	sc.heap.clear()
	for i := range sc.batch {
		sc.batch[i] = searchItem{}
	}
	sc.batch = sc.batch[:0]
	sc.band.clear()
	sc.check.reset()
}

// release clears the scratch and returns it to the pool.
func (sc *searchScratch) release() {
	sc.clear()
	scratchPool.Put(sc)
}

// --- the engine --------------------------------------------------------------

// SearchBackend runs Algorithm 1 over any Backend: a best-first traversal
// of the global R-tree in non-decreasing min-distance order, testing each
// reached object against the k-skyband found so far and pruning entries —
// subtrees and single objects alike, before anything below them is read —
// whose MBR is dominated by k existing candidates (Theorem 4). Surviving
// objects are resolved and re-keyed by their exact min(U_Q) before
// evaluation — and exact-key ties are evaluated as one batch — so the
// transitivity-based correctness argument of Section 5.2 applies. The
// traversal stops, without popping, once no exact-keyed object is waiting
// and the smallest key exceeds the band's radius: everything left would be
// pruned on its MBR, and is counted as pruned.
//
// The context is checked once per heap pop and once per candidate
// emission; on cancellation the partial Result (with timing, dominance
// and I/O statistics up to that point) is returned together with
// ctx.Err(). A hard backend storage error aborts the search and is
// returned with a nil Result — but an unavailable read (a quarantined
// page, matching faults.ErrUnavailable) degrades instead of aborting: the
// unreadable subtree or object is skipped, the traversal continues, and
// the completed Result is returned together with a *PartialResultError
// recording what was skipped, so a degraded answer is always flagged and
// never silently short. Because emission is progressive, a caller that
// cancels ctx from OnCandidate after n candidates gets exactly the first n
// of the full search.
func SearchBackend(ctx context.Context, b Backend, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()
	return searchBackend(ctx, sc, b, q, op, k, opts)
}

// searchBackend is SearchBackend over a scratch the caller owns: it leaves
// sc dirty (the caller clears or releases it) and keeps nothing of it.
func searchBackend(ctx context.Context, sc *searchScratch, b Backend, q *uncertain.Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	if k < 1 {
		panic("core: SearchBackend requires k >= 1")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	m := opts.metric()
	res := &Result{Operator: op}
	qmbr := q.MBR()
	ioBase := b.AccessStats()

	root, err := b.Root()
	if err != nil {
		return nil, err
	}

	checker := sc.check.Checker(q, op, opts.Filters, m)
	h := &sc.heap
	batch := sc.batch
	band := &sc.band
	band.radius = math.Inf(1) // no stop until push has seen k members
	defer func() { sc.batch = batch }()

	finish := func() {
		res.Elapsed = time.Since(start)
		res.Stats = checker.Stats
		res.IO = b.AccessStats().Sub(ioBase)
	}

	// The root is pushed with key 0 — a trivially valid lower bound, and
	// irrelevant anyway since it is the only item when it pops.
	h.push(searchItem{kind: kindNode, node: root})

	var expandErr error
	exact := 0 // exact-keyed items in the heap
	// partial accumulates unavailable reads (quarantined pages); non-nil
	// means the search completed in degraded mode.
	var partial *PartialResultError
	degrade := func(err error, node bool) {
		if partial == nil {
			partial = &PartialResultError{}
		}
		partial.note(err, node)
	}
	// visit keys each child entry by its MBR's min distance; one closure
	// for the whole search.
	visit := func(e BackendEntry) {
		key := m.RectMinDist(e.Rect, qmbr)
		if e.IsNode {
			h.push(searchItem{key: key, kind: kindNode, rect: e.Rect, node: e.Node})
		} else {
			h.push(searchItem{key: key, kind: kindObjLB, rect: e.Rect, obj: e.Obj})
		}
	}
	// expand handles non-exact items, pushing their successors. Pruning
	// happens at pop time — the band only grows, so testing late prunes
	// strictly more than testing at push — and an object entry is asked
	// first, exactly like a node: its rectangle is the object's MBR, so k
	// band members that dominate the rectangle dominate the object, and it
	// is dropped before it is read, summarised or keyed (Theorem 4's cover
	// validation on MBRs, under Filters.Geometric).
	// Dropping it cannot change a tie batch it would have joined: whatever
	// it would have dominated there is dominated, by transitivity, by the
	// same k band members, all of them in the pre-batch band every batch
	// member is counted against — so a pruned object is never the missing
	// witness of a batch-mate's k-th dominator, and no candidate's count
	// (which stays below k) ever included it.
	expand := func(it searchItem) {
		switch it.kind {
		case kindNode:
			if band.dominatesRect(checker, it.rect, k) {
				checker.Stats.EntryPrunes++
				return
			}
			if err := b.Expand(it.node, visit); err != nil {
				if faults.IsUnavailable(err) {
					degrade(err, true)
					return
				}
				expandErr = err
			}
		case kindObjLB:
			if opts.Filters.Geometric && band.dominatesRect(checker, it.rect, k) {
				checker.Stats.ObjectPrunes++
				return
			}
			o, err := b.Resolve(it.obj)
			if err != nil {
				if faults.IsUnavailable(err) {
					degrade(err, false)
					return
				}
				expandErr = err
				return
			}
			// Re-key by the exact min pair distance so objects are
			// evaluated in true min(U_Q) order. The summary that key comes
			// from is the object's handle for the rest of the search.
			so := checker.handle(o)
			h.push(searchItem{key: so.stat.Min, kind: kindObjExact, sum: so})
			exact++
		}
	}

	for h.len() > 0 {
		if ctx.Err() != nil {
			finish()
			return res, ctx.Err()
		}
		// Stop at the band's radius. Every item left is an entry keyed
		// above it, hence dominated by k members and pruned when popped;
		// no exact item is left and none can be made, so the band is
		// final. Count the prunes the pops would have counted.
		if exact == 0 && band.beyond(h.peekKey()) {
			for _, hk := range h.keys {
				if h.slab[hk.slot].kind == kindNode {
					checker.Stats.EntryPrunes++
				} else {
					checker.Stats.ObjectPrunes++
				}
			}
			break
		}
		it := h.pop()
		checker.Stats.HeapPops++
		if it.kind != kindObjExact {
			expand(it)
			if expandErr != nil {
				return nil, expandErr
			}
			continue
		}
		exact--
		// Drain every item whose key ties the batch key: tied exact items
		// join the batch; tied nodes/LBs may still produce tied exacts.
		batch = batch[:0]
		batch = append(batch, it)
		for h.len() > 0 && h.peekKey() <= it.key {
			nxt := h.pop()
			checker.Stats.HeapPops++
			if nxt.kind == kindObjExact {
				exact--
				batch = append(batch, nxt)
			} else {
				expand(nxt)
				if expandErr != nil {
					return nil, expandErr
				}
			}
		}
		// Evaluate the batch: dominators are counted over the pre-batch
		// band plus the other batch members (see the header comment for
		// why that is the exact dominator count). Batch members emitted
		// into the band during this batch must not be counted twice, so
		// the band scan stops at its pre-batch length.
		preBand := len(band.objs)
		for _, bi := range batch {
			if ctx.Err() != nil {
				finish()
				return res, ctx.Err()
			}
			so := bi.sum
			res.Examined++
			dominators := band.dominators(checker, preBand, so, k)
			if dominators < k {
				for _, other := range batch {
					if other.sum != so && checker.sd(other.sum, so) {
						dominators++
						if dominators >= k {
							break
						}
					}
				}
			}
			if dominators >= k {
				continue
			}
			band.push(checker, so, k)
			cand := Candidate{
				Object:     so.obj,
				Rank:       len(res.Candidates),
				MinDist:    bi.key,
				Elapsed:    time.Since(start),
				Dominators: dominators,
			}
			res.Candidates = append(res.Candidates, cand)
			if opts.OnCandidate != nil {
				opts.OnCandidate(cand)
			}
		}
	}
	finish()
	return res, partialOrNil(partial, res)
}

// partialOrNil finalizes a degraded search's error: nil for a clean run,
// the populated *PartialResultError otherwise.
func partialOrNil(partial *PartialResultError, res *Result) error {
	if partial == nil {
		return nil
	}
	partial.Result = res
	res.Incomplete = true
	return partial
}

// dominatesRect reports whether at least k members dominate the whole entry
// rectangle — a subtree's or a single object's MBR — by the operator's own
// rectangle predicate (rectPred.dominates), in which case every object
// inside it has >= k dominators and the entry can be discarded (Theorem 4
// applied to the k-skyband).
//
// For the operators of the cover chain that predicate is "the member's far
// vector is component-wise <= the rectangle's near vector, strictly
// somewhere", in distances (see band). The near vector is the rectangle's
// alone, so it is computed once per entry, and the far vectors are the
// band's slab: the test is one pass over contiguous floats. F+SD compares
// MBRs against the query's MBR, not instances, and is asked member by
// member.
//
//nnc:hotpath
func (b *band) dominatesRect(c *Checker, r geom.Rect, k int) bool {
	count := 0
	if c.op == FPlusSD {
		for _, u := range b.objs {
			if c.rectDominates(u.obj.MBR(), r) {
				count++
				if count >= k {
					return true
				}
			}
		}
		return false
	}
	if len(b.objs) < k {
		return false
	}
	h := len(c.hullPts)
	near := growFloats(c.scratch.near, h)
	c.scratch.near = near
	for t, q := range c.hullPts {
		near[t] = c.near(q, r)
	}
	compared := 0
	for i := 0; i < len(b.objs) && count < k; i++ {
		le, strict := true, false
		for t, f := range b.far[i*h : (i+1)*h] {
			compared++
			if le = within(f, near[t], &strict); !le {
				break
			}
		}
		if le && strict {
			count++
		}
	}
	c.Stats.InstanceComparisons += int64(compared)
	return count >= k
}
