package front

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// TestDoorChurnWalk drives random inserts and deletes through a door over
// the in-memory store while it keeps hot answers of every operator, at k
// 1–8, under L2, L1 and L∞. After every write each hot query is asked
// again: the answer must equal a fresh search on the store candidate for
// candidate (IDs, order, MinDist bits, Dominators), and every kept entry's
// answer must equal core.MergeShardBands over the union its basis stands
// for — its tracked objects and the inserts logged since its base. Some
// inserts copy a candidate of a hot answer, so answers tie. The walk must
// serve tied answers, spend a basis's spare, outlive the 256-insert log (so
// some repair falls back) and lift into an answer an insert its shield
// passed over, once that insert's dominators are deleted.
func TestDoorChurnWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("a 1 000-write walk")
	}
	rng := rand.New(rand.NewSource(71))
	store, err := NewMemStore(testObjects(rng, 60, 4, 60))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDoor(store, DoorConfig{})
	type hot struct {
		q    *uncertain.Object
		op   core.Operator
		k    int
		opts core.SearchOptions
		key  Key
	}
	var hots []hot
	metrics := []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev}
	for i, op := range core.Operators {
		m := metrics[i%len(metrics)]
		h := hot{q: testQuery(rng, 60), op: op, k: 1 + rng.Intn(8), opts: core.SearchOptions{Metric: m, Filters: core.AllFilters}}
		h.key = canonicalKey(h.q, h.op, h.k, m, h.opts.Filters)
		hots = append(hots, h)
	}
	entryOf := func(key Key) *entry {
		sh := &d.cache.shards[shardOf(key, cacheShards)]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if e := sh.entries[key]; e != nil && e.elem != nil {
			return e
		}
		return nil
	}
	tracked := func(e *entry) []*uncertain.Object {
		var set []*uncertain.Object
		for _, c := range e.res.Candidates {
			set = append(set, c.Object)
		}
		return append(set, e.out...)
	}

	var inserted []int // the door's live inserts
	nextID := 1 << 20
	var spent, lifted, tied int
	for w := 0; w < 1000; w++ {
		// What each kept entry tracks before the write.
		type before struct {
			e     *entry
			spare int32
			ids   []int
		}
		snap := make([]before, len(hots))
		for i, h := range hots {
			if e := entryOf(h.key); e != nil {
				snap[i] = before{e: e, spare: e.spare}
				for _, o := range tracked(e) {
					snap[i].ids = append(snap[i].ids, o.ID())
				}
			}
		}
		del := rng.Intn(3) == 0
		if del {
			// A candidate of a hot answer — the door's own insert when it
			// holds one, which lifts what that insert dominated — or any
			// insert of the door's, or any object.
			h := hots[rng.Intn(len(hots))]
			res, err := d.SearchKCtx(context.Background(), h.q, h.op, h.k, h.opts)
			if err != nil || len(res.Candidates) == 0 {
				t.Fatal(err)
			}
			ids := res.IDs()
			mine := slices.DeleteFunc(slices.Clone(ids), func(id int) bool { return !slices.Contains(inserted, id) })
			var id int
			switch r := rng.Intn(5); {
			case r < 2 && len(mine) > 0:
				id = mine[rng.Intn(len(mine))]
			case r < 3 && len(inserted) > 0:
				id = inserted[rng.Intn(len(inserted))]
			case r < 4:
				id = ids[rng.Intn(len(ids))]
			default:
				objs := store.Objects()
				id = objs[rng.Intn(len(objs))].ID()
			}
			if ok, err := d.Delete(id); err != nil || !ok {
				t.Fatalf("write %d: delete(%d) = %v, %v", w, id, ok, err)
			}
			inserted = slices.DeleteFunc(inserted, func(x int) bool { return x == id })
		} else {
			// Around a hot query's first instance, so that shields often
			// cannot rule the object out, or a copy of a hot candidate.
			h := hots[rng.Intn(len(hots))]
			at := h.q.Instance(0)
			cx, cy := at[0]+(rng.Float64()*2-1)*12, at[1]+(rng.Float64()*2-1)*12
			pts := make([]geom.Point, 1+rng.Intn(4))
			for j := range pts {
				pts[j] = geom.Point{cx + rng.Float64()*3, cy + rng.Float64()*3}
			}
			var probs []float64
			if rng.Intn(5) == 0 {
				res, err := store.SearchKCtx(context.Background(), h.q, h.op, h.k, h.opts)
				if err != nil || len(res.Candidates) == 0 {
					t.Fatal(err)
				}
				src := res.Candidates[rng.Intn(len(res.Candidates))].Object
				pts, probs = src.Points(), src.Probs()
			}
			nextID++
			if err := d.Insert(uncertain.MustNew(nextID, pts, probs)); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, nextID)
		}

		for i, h := range hots {
			at := fmt.Sprintf("write %d, %v %s k=%d", w, h.op, h.opts.Metric.Name(), h.k)
			if e := entryOf(h.key); e != nil {
				if b := snap[i]; b.e == e && e.spare < b.spare {
					spent++
				}
				union := [][]*uncertain.Object{tracked(e), d.inserts.since(e.base)}
				merged, err := core.MergeShardBands(context.Background(), h.q, h.op, h.k, h.opts, union)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, at+": kept vs merge", e.res.Candidates, merged.Candidates)
			}
			served, err := d.SearchKCtx(context.Background(), h.q, h.op, h.k, h.opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := store.SearchKCtx(context.Background(), h.q, h.op, h.k, h.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, at+": served vs fresh", served.Candidates, fresh.Candidates)
			for j := 1; j < len(served.Candidates); j++ {
				if served.Candidates[j].MinDist == served.Candidates[j-1].MinDist {
					tied++
					break
				}
			}
			if b := snap[i]; del && b.e != nil && b.e == entryOf(h.key) {
				for _, c := range served.Candidates {
					if id := c.Object.ID(); slices.Contains(inserted, id) && !slices.Contains(b.ids, id) {
						lifted++ // logged, never tracked: its shield had passed it over
					}
				}
			}
		}
	}
	st := d.Stats().Cache
	t.Logf("%d repairs, %d invalidations, %d fallbacks, floor %d; %d tied answers served, spare spent %d times, %d shielded inserts lifted",
		st.Repairs, st.Invalidations, st.RepairFallbacks, d.inserts.floor, tied, spent, lifted)
	if st.Repairs == 0 || tied == 0 || spent == 0 || lifted == 0 || d.inserts.floor == 0 || st.RepairFallbacks == 0 {
		t.Fatal("the walk missed one of: a repair, a tied answer, a spare spent, a shielded insert lifted, the log's bound, a fallback")
	}
}

// sameAnswer requires got to be want candidate for candidate.
func sameAnswer(t *testing.T, at string, got, want []core.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", at, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Object.ID() != w.Object.ID() || g.Rank != w.Rank || g.Dominators != w.Dominators ||
			math.Float64bits(g.MinDist) != math.Float64bits(w.MinDist) {
			t.Fatalf("%s: candidate %d is {%d %d %x %d}, want {%d %d %x %d}", at, i,
				g.Object.ID(), g.Rank, math.Float64bits(g.MinDist), g.Dominators,
				w.Object.ID(), w.Rank, math.Float64bits(w.MinDist), w.Dominators)
		}
	}
}
