package front

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// testObjects builds a deterministic 2-D dataset of n objects with up to
// m instances each.
func testObjects(rng *rand.Rand, n, m int, scale float64) []*uncertain.Object {
	objs := make([]*uncertain.Object, n)
	for i := range objs {
		objs[i] = testObject(rng, i+1, 1+rng.Intn(m), scale)
	}
	return objs
}

func testObject(rng *rand.Rand, id, m int, scale float64) *uncertain.Object {
	cx, cy := rng.Float64()*scale, rng.Float64()*scale
	pts := make([]geom.Point, m)
	for j := range pts {
		pts[j] = geom.Point{cx + rng.Float64()*3, cy + rng.Float64()*3}
	}
	return uncertain.MustNew(id, pts, nil)
}

func testQuery(rng *rand.Rand, scale float64) *uncertain.Object {
	cx, cy := rng.Float64()*scale, rng.Float64()*scale
	return uncertain.MustNew(0, []geom.Point{
		{cx, cy}, {cx + 2, cy + 1}, {cx + 1, cy + 2},
	}, nil)
}

func newTestDoor(t *testing.T, rng *rand.Rand, n int, cfg DoorConfig) (*Door, *MemStore) {
	t.Helper()
	store, err := NewMemStore(testObjects(rng, n, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	return NewDoor(store, cfg), store
}

var allOpts = core.SearchOptions{Filters: core.AllFilters}

func TestDoorCacheHitSharesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, _ := newTestDoor(t, rng, 40, DoorConfig{})
	q := testQuery(rng, 50)
	r1, err := d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Same logical query, separately built object: must hit.
	q2 := uncertain.MustNew(0, q.Points(), nil)
	r2, err := d.SearchKCtx(context.Background(), q2, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cache hit did not return the stored result")
	}
	st := d.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("stats = %+v", st.Cache)
	}
}

func TestDoorKeyDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, _ := newTestDoor(t, rng, 40, DoorConfig{})
	q := testQuery(rng, 50)
	ctx := context.Background()
	d.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
	variants := []func() (*core.Result, error){
		func() (*core.Result, error) { return d.SearchKCtx(ctx, q, core.SSD, 2, allOpts) },
		func() (*core.Result, error) { return d.SearchKCtx(ctx, q, core.PSD, 3, allOpts) },
		func() (*core.Result, error) {
			return d.SearchKCtx(ctx, q, core.PSD, 2, core.SearchOptions{Filters: core.AllFilters, Metric: geom.Manhattan})
		},
		func() (*core.Result, error) { return d.SearchKCtx(ctx, testQuery(rng, 50), core.PSD, 2, allOpts) },
	}
	// Each filter configuration is its own key byte: the two filters alone
	// and none miss the entry All filled, and each other's.
	for _, cfg := range []core.FilterConfig{{StatPruning: true}, {Geometric: true}, {}} {
		variants = append(variants, func() (*core.Result, error) {
			return d.SearchKCtx(ctx, q, core.PSD, 2, core.SearchOptions{Filters: cfg})
		})
	}
	for i, f := range variants {
		if _, err := f(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if st := d.Stats(); st.Cache.Hits != 0 {
		t.Fatalf("distinct queries hit the cache: %+v", st.Cache)
	}
}

// Inserting far from every cached query's band keeps entries alive (and
// correct); inserting on top of a query repairs its entry in place. Either
// way the served answer must equal a fresh search on the raw store.
func TestDoorInsertInvalidationPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, store := newTestDoor(t, rng, 60, DoorConfig{})
	ctx := context.Background()
	queries := make([]*uncertain.Object, 6)
	for i := range queries {
		queries[i] = testQuery(rng, 50)
		if _, err := d.SearchKCtx(ctx, queries[i], core.PSD, 2, allOpts); err != nil {
			t.Fatal(err)
		}
	}
	// Far insert: no entry should be invalidated.
	far := uncertain.MustNew(9001, []geom.Point{{5000, 5000}, {5001, 5001}}, nil)
	if err := d.Insert(far); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Cache.Invalidations != 0 || st.Cache.Repairs != 0 {
		t.Fatalf("far insert invalidated %d entries and repaired %d", st.Cache.Invalidations, st.Cache.Repairs)
	}
	if st.Epoch == 0 {
		t.Fatal("epoch did not advance")
	}
	hitsBefore := st.Cache.Hits
	for _, q := range queries {
		res, err := d.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := store.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, res, fresh)
	}
	if d.Stats().Cache.Hits != hitsBefore+int64(len(queries)) {
		t.Fatalf("surviving entries not served from cache: %+v", d.Stats().Cache)
	}

	// Near insert: drop an object on top of query 0; its entry must be
	// repaired, not evicted, and the next lookup must hit an answer that
	// holds the new object.
	onTop := uncertain.MustNew(9002, []geom.Point{queries[0].Instance(0)}, nil)
	if err := d.Insert(onTop); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.Cache.Repairs == 0 || st.Cache.Invalidations != 0 {
		t.Fatalf("on-top insert repaired %d entries and invalidated %d", st.Cache.Repairs, st.Cache.Invalidations)
	}
	res, err := d.SearchKCtx(ctx, queries[0], core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := store.SearchKCtx(ctx, queries[0], core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, res, fresh)
	if d.Stats().Cache.Hits != st.Cache.Hits+1 {
		t.Fatal("the repaired entry was not served from the cache")
	}
	if !answers(res, 9002) {
		t.Fatal("the repaired answer does not contain the inserted object (stale answer?)")
	}
}

func TestDoorDeleteInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, store := newTestDoor(t, rng, 60, DoorConfig{})
	ctx := context.Background()
	q := testQuery(rng, 50)
	res, err := d.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	victim := res.Candidates[0].Object.ID()

	// Delete an object outside the answer: entry survives.
	other := 0
	for _, o := range store.Objects() {
		inAnswer := false
		for _, c := range res.Candidates {
			if c.Object.ID() == o.ID() {
				inAnswer = true
			}
		}
		if !inAnswer {
			other = o.ID()
			break
		}
	}
	if ok, err := d.Delete(other); err != nil || !ok {
		t.Fatalf("delete(%d) = %v, %v", other, ok, err)
	}
	if d.Stats().Cache.Invalidations != 0 {
		t.Fatal("unrelated delete invalidated the entry")
	}
	if res2, err := d.SearchKCtx(ctx, q, core.PSD, 2, allOpts); err != nil || res2 != res {
		t.Fatalf("entry not served after unrelated delete (err=%v)", err)
	}

	// Delete a result member: entry must be invalidated and the fresh
	// answer must not contain it.
	if ok, err := d.Delete(victim); err != nil || !ok {
		t.Fatalf("delete(%d) = %v, %v", victim, ok, err)
	}
	if d.Stats().Cache.Invalidations == 0 {
		t.Fatal("candidate delete invalidated nothing")
	}
	res3, err := d.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res3.Candidates {
		if c.Object.ID() == victim {
			t.Fatal("served answer contains a deleted object")
		}
	}
	fresh, err := store.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, res3, fresh)
}

// slowBackend wraps a backend, delaying and counting searches. When the
// wrapped backend is a *MemStore its mutation capability is forwarded.
type slowBackend struct {
	server.Backend
	delay    time.Duration
	searches atomic.Int64
}

func (s *slowBackend) Mutable() bool {
	m, ok := s.Backend.(server.Mutator)
	return ok && m.Mutable()
}

func (s *slowBackend) Insert(o *uncertain.Object) error {
	return s.Backend.(server.Mutator).Insert(o)
}

func (s *slowBackend) Delete(id int) (bool, error) {
	return s.Backend.(server.Mutator).Delete(id)
}

func (s *slowBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	s.searches.Add(1)
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Backend.SearchKCtx(ctx, q, op, k, opts)
}

func TestDoorCoalescesIdenticalInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store, err := NewMemStore(testObjects(rng, 40, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowBackend{Backend: store, delay: 30 * time.Millisecond}
	// Cache off isolates coalescing; every request would otherwise race
	// the first fill.
	d := NewDoor(slow, DoorConfig{CacheBytes: -1})
	q := testQuery(rng, 50)

	const n = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Clone per goroutine: coalescing must work on equal content,
			// not pointer identity.
			qi := uncertain.MustNew(0, q.Points(), nil)
			results[i], errs[i] = d.SearchKCtx(context.Background(), qi, core.PSD, 2, allOpts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if results[i] == nil || len(results[i].IDs()) == 0 {
			t.Fatalf("slot %d: empty result", i)
		}
	}
	if got := slow.searches.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical concurrent queries", got, n)
	}
	st := d.Stats()
	// One leader: every lookup missed, and all but one joined it.
	if st.CoalesceHits != n-1 || st.Cache.Misses != n {
		t.Fatalf("coalesce stats: %+v", st)
	}
}

func TestDoorWaiterHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	store, err := NewMemStore(testObjects(rng, 30, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowBackend{Backend: store, delay: 2 * time.Second}
	d := NewDoor(slow, DoorConfig{CacheBytes: -1})
	q := testQuery(rng, 50)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	}()
	// Give the leader time to register its flight.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = d.SearchKCtx(ctx, uncertain.MustNew(0, q.Points(), nil), core.PSD, 2, allOpts)
	if err == nil {
		t.Fatal("waiter returned nil error after its context expired")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("waiter blocked %v past its deadline", elapsed)
	}
	<-leaderDone
}

// A fill whose search straddles a mutation must not become servable.
func TestDoorFillRacingMutationDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	store, err := NewMemStore(testObjects(rng, 40, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowBackend{Backend: store, delay: 80 * time.Millisecond}
	d := NewDoor(slow, DoorConfig{})
	q := testQuery(rng, 50)

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	}()
	time.Sleep(20 * time.Millisecond)
	// Mutation lands mid-search (far away, so even the sweep would spare
	// the entry — the epoch tag alone must kill the fill).
	if err := d.Insert(uncertain.MustNew(9100, []geom.Point{{9000, 9000}}, nil)); err != nil {
		t.Fatal(err)
	}
	<-done
	// The straddling fill must not serve: next lookup misses.
	if _, err := d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Cache.Hits != 0 {
		t.Fatalf("a fill that straddled a mutation was served: %+v", st.Cache)
	}
}

// A fill can land after a mutation's sweep and before its epoch store:
// the entry carries the old epoch, was never tested against that mutation,
// and no lookup serves it. The next sweep must drop it — re-tagging it
// along with the live entries would serve an answer one mutation stale
// (the soak phase of the conformance suite caught it once in ~170 runs).
func TestCacheSweepDropsDeadTags(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put("dead", &core.Result{}, 10, nil, []int{7}, 5) // the clock already reads 6
	c.put("live", &core.Result{}, 10, nil, []int{7}, 6)
	c.sweep(mutation{delete: true, id: 1}, 7) // touches neither answer
	if _, ok := c.get("dead", 7); ok {
		t.Fatal("sweep re-tagged an entry filled across an earlier mutation")
	}
	if _, ok := c.get("live", 7); !ok {
		t.Fatal("sweep dropped a current, unaffected entry")
	}
}

// A reader that loaded the clock before a sweep published its epoch can
// meet an entry that sweep already re-tagged one ahead. The entry was
// proven current for both epochs: it must be served to that reader, by key
// and by alias, and not removed from under the readers of the new epoch.
func TestCacheLookupKeepsEntriesTaggedAhead(t *testing.T) {
	c := newResultCache(1 << 20)
	key := canonicalKey(testQuery(rand.New(rand.NewSource(11)), 50), core.PSD, 2, geom.Euclidean, core.AllFilters)
	_, e, _ := c.lookup(key, 6)
	res := &core.Result{}
	c.land(e, res, nil, &kept{res: res, shield: new(core.AnswerShield), base: 6, bytes: 10}, "body")
	c.sweep(mutation{delete: true, id: 1}, 7) // touches nothing
	if _, ok := c.get(key, 6); !ok {
		t.Fatal("a reader one epoch behind missed an entry the sweep proved current")
	}
	if res, _, _ := c.repeat([]byte("body"), 6, 10); res == nil {
		t.Fatal("a reader one epoch behind missed the entry by its alias")
	}
	if _, ok := c.get(key, 7); !ok {
		t.Fatal("the behind reader's lookup removed an entry current at the new epoch")
	}
	if _, ok := c.get(key, 8); ok {
		t.Fatal("an entry tagged behind the clock was served")
	}
}

// A delete reads an entry's candidate IDs only when the deleted id's bit
// (id&63) is set in the entry's signature. A colliding id runs the exact
// scan and spares the entry; the candidate's own id evicts it; an id whose
// bit is clear never reaches the scan.
func TestCacheDeleteSignature(t *testing.T) {
	for _, tc := range []struct{ cand, collide, clear int }{
		{5, 69, 6},
		{-1, 63, -2},
		{-70, -6, 0},
	} {
		if idBit(tc.collide) != idBit(tc.cand) || idBit(tc.clear) == idBit(tc.cand) {
			t.Fatalf("%+v: the ids do not share, or do not split, a bit", tc)
		}
		c := newResultCache(1 << 20)
		o := uncertain.MustNew(tc.cand, []geom.Point{{0, 0}}, nil)
		c.put("k", &core.Result{Candidates: []core.Candidate{{Object: o}}}, 10, nil, nil, 1)
		c.sweep(mutation{delete: true, id: tc.collide}, 2)
		c.sweep(mutation{delete: true, id: tc.clear}, 3)
		if _, ok := c.get("k", 3); !ok || c.stats().Invalidations != 0 {
			t.Fatalf("%+v: deleting a non-candidate evicted the entry", tc)
		}
		c.sweep(mutation{delete: true, id: tc.cand}, 4)
		if _, ok := c.get("k", 4); ok || c.stats().Invalidations != 1 {
			t.Fatalf("%+v: deleting the candidate kept the entry", tc)
		}
		// No answer to read: reaching the scan would dereference nil.
		e := &entry{sig: idBit(tc.cand)}
		if e.verdictOn(mutation{delete: true, id: tc.clear}) != keep {
			t.Fatalf("%+v: a clear bit reported an effect", tc)
		}
	}
}

// A write's sweep over a warm table re-tags, evicts and reads shields and
// signatures in place: it allocates nothing.
func TestCacheSweepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d, _ := newTestDoor(t, rng, 60, DoorConfig{})
	for i := 0; i < 40; i++ {
		if _, err := d.SearchKCtx(context.Background(), testQuery(rng, 50), core.PSD, 2, allOpts); err != nil {
			t.Fatal(err)
		}
	}
	entries := d.Stats().Cache.Entries
	if entries < 20 {
		t.Fatalf("only %d entries kept", entries)
	}
	far := geom.NewRect(geom.Point{5000, 5000}, geom.Point{5001, 5001})
	tag := d.Epoch()
	allocs := testing.AllocsPerRun(100, func() {
		tag++
		d.cache.sweep(mutation{mbr: far}, tag)
		tag++
		d.cache.sweep(mutation{delete: true, id: 1 << 20}, tag) // no object has it
	})
	if allocs != 0 {
		t.Fatalf("a sweep over %d entries allocates %.1f times, want 0", entries, allocs)
	}
	if st := d.Stats().Cache; st.Entries != entries || st.Invalidations != 0 {
		t.Fatalf("unaffecting sweeps changed the table: %d entries, %d invalidations", st.Entries, st.Invalidations)
	}
}

func TestCacheByteBudgetEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Tiny budget: a few entries per shard at most.
	d, _ := newTestDoor(t, rng, 50, DoorConfig{CacheBytes: 32 << 10})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := d.SearchKCtx(ctx, testQuery(rng, 50), core.PSD, 2, allOpts); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats().Cache
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a tiny budget: %+v", st)
	}
	if st.Bytes > 32<<10 {
		t.Fatalf("cache exceeds budget: %d bytes", st.Bytes)
	}
}

// assertSameAnswer compares the candidate lists of two results exactly.
func assertSameAnswer(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidate count %d != %d (%v vs %v)", len(got.Candidates), len(want.Candidates), got.IDs(), want.IDs())
	}
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if g.Object.ID() != w.Object.ID() || g.MinDist != w.MinDist || g.Dominators != w.Dominators {
			t.Fatalf("candidate %d differs: (%d,%g,%d) != (%d,%g,%d)",
				i, g.Object.ID(), g.MinDist, g.Dominators, w.Object.ID(), w.MinDist, w.Dominators)
		}
	}
}

// emptyBackend answers every search with an empty candidate set — the
// provable answer for a region the dataset does not reach.
type emptyBackend struct{ searches atomic.Int64 }

func (e *emptyBackend) Len() int { return 0 }
func (e *emptyBackend) Dim() int { return 2 }

func (e *emptyBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	e.searches.Add(1)
	return &core.Result{Operator: op}, nil
}

func TestDoorCachesNegativeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	be := &emptyBackend{}
	d := NewDoor(be, DoorConfig{})
	q := testQuery(rng, 50)

	r1, err := d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Candidates) != 0 {
		t.Fatalf("backend produced %d candidates, want 0", len(r1.Candidates))
	}
	// Same logical query again: must be served from cache and never reach
	// the backend.
	q2 := uncertain.MustNew(0, q.Points(), nil)
	r2, err := d.SearchKCtx(context.Background(), q2, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("negative result was not served from cache")
	}
	if got := be.searches.Load(); got != 1 {
		t.Fatalf("backend searched %d times, want 1", got)
	}
	st := d.Stats()
	if st.Cache.Hits != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}

	// A non-empty answer is served from cache the same way.
	store, err := NewMemStore(testObjects(rng, 30, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDoor(store, DoorConfig{})
	q3 := testQuery(rng, 50)
	if _, err := d2.SearchKCtx(context.Background(), q3, core.PSD, 2, allOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.SearchKCtx(context.Background(), q3, core.PSD, 2, allOpts); err != nil {
		t.Fatal(err)
	}
	st2 := d2.Stats()
	if st2.Cache.Hits != 1 {
		t.Fatalf("non-empty repeat: hits=%d, want 1", st2.Cache.Hits)
	}
}
