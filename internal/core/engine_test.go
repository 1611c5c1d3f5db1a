package core

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

func engineFixture(t *testing.T, n int, seed int64) (*Index, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, M: 6, EdgeLen: 400, Seed: seed})
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

// searchK is the tests' shorthand for the full call under a background
// context, where the memory backend cannot fail.
func searchK(idx *Index, q *uncertain.Object, op Operator, k int, opts SearchOptions) *Result {
	res, _ := idx.SearchKCtx(context.Background(), q, op, k, opts)
	return res
}

// A context canceled mid-search aborts the traversal and returns the
// partial result with the context's error.
func TestSearchBackendCancellation(t *testing.T) {
	idx, ds := engineFixture(t, 150, 31)
	q := ds.Queries(1, 4, 200, 32)[0]
	full, err := idx.SearchKCtx(context.Background(), q, FPlusSD, 1, SearchOptions{Filters: AllFilters})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Candidates) < 2 {
		t.Skip("dataset produced a trivial candidate set")
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := idx.SearchKCtx(ctx, q, FPlusSD, 1, SearchOptions{
		Filters:     AllFilters,
		OnCandidate: func(Candidate) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Candidates) == 0 || len(res.Candidates) >= len(full.Candidates) {
		t.Fatalf("partial result wrong: %+v", res)
	}
	for i, c := range res.Candidates {
		if c.Object.ID() != full.Candidates[i].Object.ID() {
			t.Fatalf("partial result not a prefix at %d", i)
		}
	}
}

// An already-done context still yields a well-formed (empty) result and
// the context error from the ctx-taking entry point.
func TestSearchBackendPreCanceled(t *testing.T) {
	idx, ds := engineFixture(t, 100, 35)
	q := ds.Queries(1, 4, 200, 36)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchBackend(ctx, idx, q, SSD, 1, SearchOptions{Filters: AllFilters})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || len(res.Candidates) != 0 || res.Elapsed <= 0 {
		t.Fatalf("partial result wrong: %+v", res)
	}
}

// Concurrent searches share the scratch pool without interference; every
// run must reproduce the serial result exactly.
func TestEngineScratchPoolConcurrent(t *testing.T) {
	idx, ds := engineFixture(t, 150, 37)
	queries := ds.Queries(4, 4, 200, 38)
	type key struct{ qi, opi int }
	want := map[key][]int{}
	for qi, q := range queries {
		for opi, op := range Operators {
			want[key{qi, opi}] = idx.Search(q, op).IDs()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for rep := 0; rep < 4; rep++ {
		for qi, q := range queries {
			for opi, op := range Operators {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got := idx.Search(q, op).IDs()
					exp := want[key{qi, opi}]
					if len(got) != len(exp) {
						errs <- "length mismatch"
						return
					}
					for i := range exp {
						if got[i] != exp[i] {
							errs <- "order mismatch"
							return
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestIOStatsArithmetic(t *testing.T) {
	a := IOStats{Hits: 10, Misses: 4, Reads: 4, Writes: 1}
	b := IOStats{Hits: 6, Misses: 1, Reads: 1, Writes: 1}
	d := a.Sub(b)
	if d != (IOStats{Hits: 4, Misses: 3, Reads: 3}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Accesses() != 7 {
		t.Fatalf("Accesses = %d", d.Accesses())
	}
}

// refHeap is container/heap over the same keys with the same Less, the
// reference the search heap's tie order is held to.
type refHeap []searchItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(searchItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// The typed heap must behave exactly like container/heap: min key first and,
// among tied keys, the very item container/heap would pop — across
// interleaved pushes and pops, with every item tagged by a distinct NodeRef
// and carrying pointers (an MBR, an object). A drained heap holds no pointer
// in any slab slot, and the slab is no longer than the heap has ever been.
func TestSearchHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	obj := uncertain.MustNew(1, []geom.Point{{0, 0}}, nil)
	for round := 0; round < 50; round++ {
		var h searchHeap
		var ref refHeap
		tag, live, most := uint64(0), 0, 0
		push := func() {
			tag++
			// Few distinct keys, so most pushes tie with items already held.
			it := searchItem{key: float64(rng.Intn(4 + round%5)), kind: kindObjLB,
				rect: obj.MBR(), node: NodeRef{ID: tag}, obj: ObjRef{Obj: obj, ID: tag}}
			h.push(it)
			heap.Push(&ref, it)
			live++
			most = max(most, live)
		}
		pop := func() {
			got, want := h.pop(), heap.Pop(&ref).(searchItem)
			live--
			if got.node != want.node || got.key != want.key {
				t.Fatalf("round %d: popped %v (key %g), container/heap pops %v (key %g)",
					round, got.node, got.key, want.node, want.key)
			}
			if got.obj.Obj != obj || got.rect.Lo == nil {
				t.Fatalf("round %d: popped item lost its references: %+v", round, got)
			}
		}
		for step := 0; step < 400; step++ {
			if live == 0 || rng.Intn(3) > 0 {
				push()
			} else {
				pop()
			}
		}
		for h.len() > 0 {
			pop()
		}
		if len(h.slab) != most {
			t.Fatalf("round %d: slab of %d slots for at most %d live items", round, len(h.slab), most)
		}
		for slot, it := range h.slab {
			if it.obj.Obj != nil || it.rect.Lo != nil || it.rect.Hi != nil {
				t.Fatalf("round %d: drained slot %d still holds %+v", round, slot, it)
			}
		}
	}
}

// The entry test over the band's far slab is its predicate asked member by
// member: for every operator, metric and k it says "k members dominate r"
// exactly when k members pass entryDominates — on rectangles far
// from the query, overlapping it, and degenerate (a point, sometimes a
// member's own), against members some of which are single points themselves,
// after move-to-front has permuted the members away from the slab's
// insertion order. And the entry test subsumes cover validation on MBRs
// (Theorem 4), which is why the checker has no such rung: wherever a
// member's MBR dominates r for an operator of the cover chain, the member
// passes entryDominates against r, and F-SD at the query instances (rowFSD)
// holds between it and an object whose MBR is r.
func TestSlabEntryTestMatchesRectDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(2303))
	pruned, subsumed := map[Operator]int{}, map[Operator]int{}
	var massPruned int64
	for iter := 0; iter < 200; iter++ {
		q := randObject(rng, 0, 2, 1+rng.Intn(6), geom.Point{50, 50}, 10)
		members := make([]*uncertain.Object, 1+rng.Intn(12))
		for i := range members {
			c := geom.Point{50 + rng.NormFloat64()*15, 50 + rng.NormFloat64()*15}
			members[i] = randObject(rng, i+1, 2, 1+rng.Intn(4), c, rng.Float64()*6)
		}
		rects := make([]geom.Rect, 24)
		for i := range rects {
			c := geom.Point{50 + rng.NormFloat64()*60, 50 + rng.NormFloat64()*60}
			switch i % 8 {
			case 0, 4:
				c = q.Instance(rng.Intn(q.Len())).Clone() // overlaps the query
			case 3:
				// On a member's instance: against a point member, far equals
				// near at every query instance and nothing is strict.
				c = members[rng.Intn(len(members))].Instance(0).Clone()
			}
			rects[i] = geom.PointRect(c)
			if i%3 != 0 {
				w, h := rng.Float64()*20, rng.Float64()*20
				rects[i] = geom.Rect{Lo: geom.Point{c[0] - w, c[1] - h}, Hi: geom.Point{c[0] + w, c[1] + h}}
			}
		}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev} {
			for _, op := range Operators {
				var sc CheckScratch
				c := sc.Checker(q, op, AllFilters, m)
				var b band
				for _, o := range members {
					b.push(c, c.summaryOf(o), 1)
				}
				b.toFront(rng.Intn(len(members)))
				for i, r := range rects {
					v := uncertain.MustNew(100+i, []geom.Point{r.Lo, r.Hi}, nil) // its MBR is r
					count := 0
					for _, u := range members {
						entry := entryDominates(c, u, r)
						if entry {
							count++
						}
						if dom, _ := c.dominates(u.MBR(), r); dom && op != FPlusSD {
							subsumed[op]++
							if !entry || !rowFSD(c, c.summaryOf(u), c.summaryOf(v)) {
								t.Fatalf("iter %d %s %v: MBR of %d dominates %v, entry test %v, F-SD %v",
									iter, m.Name(), op, u.ID(), r, entry, rowFSD(c, c.summaryOf(u), c.summaryOf(v)))
							}
						}
					}
					for _, k := range []int{1, 4} {
						if got := b.dominatesRect(c, r, k); got != (count >= k) {
							t.Fatalf("iter %d %s %v k=%d: slab test %v, %d of %d members dominate %v",
								iter, m.Name(), op, k, got, count, len(members), r)
						}
					}
					if count > 0 {
						pruned[op]++
					}
				}
				massPruned += c.Stats.MassPrunes
			}
		}
	}
	for _, op := range Operators {
		if pruned[op] < 100 || op != FPlusSD && subsumed[op] < 100 {
			t.Fatalf("%v: only %d rectangles had a dominator, %d an MBR dominator; the generator is lopsided",
				op, pruned[op], subsumed[op])
		}
	}
	if massPruned < 100 {
		t.Fatalf("S-SD's mass test found the k-th dominator of only %d rectangles", massPruned)
	}
	t.Logf("rectangles with a dominator %v, member-rectangle pairs with an MBR dominator %v, S-SD mass prunes %d",
		pruned, subsumed, massPruned)
}

// FuzzSSDEntryTest is the subsumption property of S-SD's entry test:
// whenever the band counts a member U against a rectangle r — by its F-SD
// row or by the mass test against N_r — Checker.Dominates(U, V) holds for
// objects V inside r, under every metric and with the filters on and off.
// The V asked include the tight ones, whose instances sit at r's nearest
// points to the query instances (V_Q ≈ N_r, equal for one query instance).
// Rectangles include points on a member's instances, where U_Q can equal
// N_r and only the witness keeps U from counting, and rectangles by a query
// instance, whose mass N_r must carry.
func FuzzSSDEntryTest(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		weighted := func(id int, pts []geom.Point, zero bool) *uncertain.Object {
			ws := make([]float64, len(pts))
			for i := range ws {
				ws[i] = rng.Float64() + 0.05
			}
			if zero && len(ws) > 1 {
				ws[rng.Intn(len(ws))] = 0
			}
			return uncertain.MustNew(id, pts, ws)
		}
		randPts := func(n int, c geom.Point, spread float64) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{c[0] + (rng.Float64()*2-1)*spread, c[1] + (rng.Float64()*2-1)*spread}
			}
			return pts
		}
		q := weighted(0, randPts(1+rng.Intn(8), geom.Point{50, 50}, 10), rng.Intn(4) == 0)
		members := make([]*uncertain.Object, 1+rng.Intn(4))
		for i := range members {
			c := geom.Point{50 + rng.NormFloat64()*15, 50 + rng.NormFloat64()*15}
			members[i] = weighted(i+1, randPts(1+rng.Intn(5), c, rng.Float64()*8), rng.Intn(4) == 0)
		}
		rects := make([]geom.Rect, 12)
		for i := range rects {
			var c geom.Point
			switch i % 4 {
			case 0: // a point on a member's instance
				c = members[rng.Intn(len(members))].Instance(0).Clone()
			case 1: // overlapping the query
				c = q.Instance(rng.Intn(q.Len())).Clone()
			case 2: // nearer a query instance than a member
				j := rng.Intn(q.Len())
				a, b := q.Instance(j), members[rng.Intn(len(members))].Instance(0)
				t := rng.Float64() / 2
				c = geom.Point{a[0] + t*(b[0]-a[0]), a[1] + t*(b[1]-a[1])}
			default:
				c = geom.Point{50 + rng.NormFloat64()*40, 50 + rng.NormFloat64()*40}
			}
			w, h := rng.Float64()*15, rng.Float64()*15
			switch i % 4 {
			case 0:
				w, h = 0, 0
			case 1, 2:
				w, h = w/8, h/8
			}
			rects[i] = geom.Rect{Lo: geom.Point{c[0] - w, c[1] - h}, Hi: geom.Point{c[0] + w, c[1] + h}}
		}
		nextID := 1000
		inside := func(r geom.Rect) []*uncertain.Object {
			var vs []*uncertain.Object
			add := func(pts []geom.Point, zero bool) {
				nextID++
				vs = append(vs, weighted(nextID, pts, zero))
			}
			nearest := make([]geom.Point, q.Len())
			for j := range nearest {
				nearest[j] = clampInto(q.Instance(j), r)
			}
			add(nearest, false) // V_Q ≈ N_r
			add(nearest, true)
			j := rng.Intn(q.Len())
			add([]geom.Point{nearest[j]}, false) // V_Q = N_r when |Q| = 1
			add([]geom.Point{r.Lo.Clone(), r.Hi.Clone()}, false)
			for range 2 {
				pts := make([]geom.Point, 1+rng.Intn(5))
				for i := range pts {
					pts[i] = geom.Point{r.Lo[0] + rng.Float64()*(r.Hi[0]-r.Lo[0]), r.Lo[1] + rng.Float64()*(r.Hi[1]-r.Lo[1])}
				}
				add(pts, rng.Intn(3) == 0)
			}
			return vs
		}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev} {
			for _, cfg := range []FilterConfig{AllFilters, {}} {
				var sc CheckScratch
				c := sc.Checker(q, SSD, cfg, m)
				for _, r := range rects {
					vs := inside(r)
					for _, u := range members {
						var b band
						b.push(c, c.summaryOf(u), 1)
						mass := c.Stats.MassPrunes
						if !b.dominatesRect(c, r, 1) {
							continue
						}
						for _, v := range vs {
							if !c.Dominates(u, v) {
								t.Fatalf("%s %+v: the entry test counts %v against %v (mass test %v), yet it does not dominate %v inside it",
									m.Name(), cfg, u, r, c.Stats.MassPrunes > mass, v)
							}
						}
					}
				}
			}
		}
	})
}

// clampInto is the point of r nearest to p under L2, L1 and L∞ alike.
func clampInto(p geom.Point, r geom.Rect) geom.Point {
	c := make(geom.Point, len(p))
	for i, x := range p {
		c[i] = min(max(x, r.Lo[i]), r.Hi[i])
	}
	return c
}
