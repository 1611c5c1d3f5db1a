package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// allocObjs builds a deterministic little workload: a query plus objects
// with enough instances to exercise distributions, level bounds and the
// P-SD flow networks.
func allocObjs(n, m int, seed int64) (q *uncertain.Object, objs []*uncertain.Object) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(id int, cx, cy float64) *uncertain.Object {
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.Float64()*4, cy + rng.Float64()*4}
		}
		return uncertain.MustNew(id, pts, nil)
	}
	q = mk(1000, 50, 50)
	for i := 0; i < n; i++ {
		objs = append(objs, mk(i, rng.Float64()*100, rng.Float64()*100))
	}
	return q, objs
}

// Warm dominance checks — every cache already built, every slab already
// grown — must not allocate, for any operator. This is the tentpole's
// regression guard: a future change that re-introduces a per-check
// allocation fails here before it shows up in benchmarks.
func TestWarmCheckZeroAllocs(t *testing.T) {
	q, objs := allocObjs(12, 10, 7)
	for _, op := range Operators {
		t.Run(op.String(), func(t *testing.T) {
			var sc CheckScratch
			c := sc.Checker(q, op, AllFilters, geom.Euclidean)
			run := func() {
				for i, u := range objs {
					for j, v := range objs {
						if i != j {
							c.Dominates(u, v)
						}
					}
				}
			}
			run() // warm: build caches, grow slabs and networks
			if avg := testing.AllocsPerRun(20, run); avg != 0 {
				t.Errorf("warm %s checks allocated %.1f times per round, want 0", op, avg)
			}
		})
	}
}

// A warm checker re-initialized from its scratch (the per-search reset the
// engine performs) must also run allocation-free: the reset recycles slabs
// rather than discarding them.
func TestWarmSearchResetZeroAllocs(t *testing.T) {
	q, objs := allocObjs(10, 8, 11)
	var sc CheckScratch
	round := func() {
		for _, op := range Operators {
			c := sc.Checker(q, op, AllFilters, geom.Euclidean)
			for i, u := range objs {
				for j, v := range objs {
					if i != j {
						c.Dominates(u, v)
					}
				}
			}
		}
	}
	round()
	round() // second round reaches the high-water marks everywhere
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Errorf("warm reset+check rounds allocated %.1f times, want 0", avg)
	}
}

// warmSearchAllocs runs one search over p's objects for an 8-instance
// query drawn with seed qseed, cold, growing every slab of its scratch to
// the search's high-water mark, then warm, and returns the cold run's
// result, what a warm run allocates, and what the result accounts for: the
// Result, the growth steps of its candidate slice, and the one closure the
// engine hands to Backend.Expand.
func warmSearchAllocs(t *testing.T, p datagen.Params, qseed int64, op Operator, k int) (res *Result, avg, own float64) {
	t.Helper()
	ds := datagen.Generate(p)
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 8, 200, qseed)[0]
	sc := new(searchScratch)
	run := func() {
		res, _ = searchBackend(context.Background(), sc, idx, q, op, k, SearchOptions{Filters: AllFilters})
		sc.clear()
	}
	run()
	cold := res
	grows := 0
	var cands []Candidate
	for range res.Candidates {
		if len(cands) == cap(cands) {
			grows++
		}
		cands = append(cands, Candidate{})
	}
	return cold, testing.AllocsPerRun(20, run), float64(2 + grows)
}

// A warm P-SD k=4 search over 400 anti-correlated objects allocates what it
// returns and nothing else. The entry test over the far slab, the band scan,
// rung 7's match walk and the transport solves — all of which this search
// runs — contribute zero. (The query is one of the few whose search still
// solves a transport once the walk has taken its share of the pairs.)
func TestWarmPSDSearchAllocatesOnlyItsResult(t *testing.T) {
	res, avg, own := warmSearchAllocs(t, datagen.Params{N: 400, M: 10, Centers: datagen.AntiCorrelated, Seed: 43}, 49, PSD, 4)
	if res.Stats.FlowSolves == 0 || res.Stats.ObjectPrunes == 0 || len(res.Candidates) < 4 {
		t.Fatalf("the search exercises too little: %+v, %d candidates", res.Stats, len(res.Candidates))
	}
	if avg != own {
		t.Errorf("warm P-SD k=4 search allocated %.1f times, its result accounts for %.0f", avg, own)
	}
}

// A warm S-SD k=1 search over 200 overlapping NBA-like objects, where about
// one check in four is validated on the summary and one in three reaches the
// exact scan, allocates what it returns and nothing else: the search heap's
// slab and free list, the runs sorted for U_Q and the merge's second buffer
// all contribute zero.
func TestWarmSSDSearchAllocatesOnlyItsResult(t *testing.T) {
	res, avg, own := warmSearchAllocs(t, datagen.Params{N: 200, M: 10, Centers: datagen.NBALike, Seed: 43}, 47, SSD, 1)
	st := res.Stats
	if exact := st.DominanceChecks - st.StatPrunes - st.CoverValidations; exact == 0 || st.ObjectPrunes == 0 {
		t.Fatalf("the search exercises too little: %+v", st)
	}
	if avg != own {
		t.Errorf("warm S-SD k=1 search allocated %.1f times, its result accounts for %.0f", avg, own)
	}
}

// Equivalence: a checker backed by one long-lived scratch (arena path)
// must return exactly the verdicts of a fresh checker per pair (the naive
// allocation path), for every operator, on tie-heavy quick-generated
// inputs.
func TestQuickArenaNaiveEquivalence(t *testing.T) {
	for _, op := range Operators {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			var sc CheckScratch
			f := func(ru, rv, rq rawObj) bool {
				q := rq.object(0)
				u := ru.object(1)
				v := rv.object(2)
				arena := sc.Checker(q, op, AllFilters, geom.Euclidean)
				got := arena.Dominates(u, v)
				gotRev := arena.Dominates(v, u)
				naive := NewChecker(q, op, AllFilters)
				want := naive.Dominates(u, v)
				wantRev := naive.Dominates(v, u)
				if got != want || gotRev != wantRev {
					t.Logf("op=%s got=(%v,%v) want=(%v,%v)\nq=%v\nu=%v\nv=%v",
						op, got, gotRev, want, wantRev, q, u, v)
					return false
				}
				return true
			}
			if err := quick.Check(f, quickCfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A cold search — a fresh scratch, every slab grown from nothing — costs
// what the objects it examines cost, whatever their IDs: after an insert of
// a very large ID, after that object's delete, and after an insert of a
// negative ID, a search over 200 NBA-like objects allocates within 10 % of
// the bytes it allocated before.
func TestColdSearchBytesIgnoreIDs(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 200, M: 10, Centers: datagen.NBALike, Seed: 43})
	idx, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 8, 200, 47)[0]
	// The fewest bytes of three searches, so that another goroutine's
	// allocation cannot fail the test.
	cold := func() uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			searchBackend(context.Background(), new(searchScratch), idx, q, PSD, 1, SearchOptions{Filters: AllFilters})
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	far := func(id int) *uncertain.Object {
		p := make(geom.Point, idx.Dim())
		for i := range p {
			p[i] = 1e6
		}
		return uncertain.MustNew(id, []geom.Point{p}, nil)
	}
	const big = 1<<22 - 1
	base := cold()
	for _, step := range []struct {
		name string
		do   func() bool
	}{
		{"the insert of ID 4 194 303", func() bool { return idx.Insert(far(big)) == nil }},
		{"the delete of ID 4 194 303", func() bool { return idx.Delete(big) }},
		{"the insert of ID -7", func() bool { return idx.Insert(far(-7)) == nil }},
	} {
		if !step.do() {
			t.Fatalf("%s failed", step.name)
		}
		if got := cold(); got > base+base/10 || got < base-base/10 {
			t.Errorf("after %s a cold search allocates %d bytes, %d before", step.name, got, base)
		}
	}
}

// The engine's pooled scratch must not leak state between searches: the
// same query repeated against the same index returns identical candidates,
// and interleaved different queries don't perturb each other.
func TestPooledScratchSearchStability(t *testing.T) {
	qa, objs := allocObjs(40, 6, 31)
	qb, _ := allocObjs(1, 6, 77)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range Operators {
		base := idx.Search(qa, op).IDs()
		for round := 0; round < 5; round++ {
			idx.Search(qb, op) // interleave a different query through the pool
			got := idx.Search(qa, op).IDs()
			if fmt.Sprint(got) != fmt.Sprint(base) {
				t.Fatalf("%s round %d: candidates %v, want %v", op, round, got, base)
			}
		}
	}
}
