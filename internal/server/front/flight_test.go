package front

// What the one table must keep of the in-flight half: a mutation never
// lets an answer that straddled it be served, and a failed leader never
// fails its waiters.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// parkedBackend holds its first search until release is closed or the
// search's context ends, and counts every search. Its MemStore takes the
// mutations, so an insert commits while the first search is parked.
type parkedBackend struct {
	*MemStore
	parked, release chan struct{}
	searches        atomic.Int64
}

func newParkedBackend(t *testing.T, rng *rand.Rand) *parkedBackend {
	t.Helper()
	store, err := NewMemStore(testObjects(rng, 40, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	return &parkedBackend{MemStore: store, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkedBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	if p.searches.Add(1) == 1 {
		close(p.parked)
		select {
		case <-p.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return p.MemStore.SearchKCtx(ctx, q, op, k, opts)
}

// joinParkedLeader starts a leader for q on a context of its own, waits
// until it is parked in the backend, then starts n identical searches and
// waits until every one of them has joined it.
func joinParkedLeader(t *testing.T, d *Door, be *parkedBackend, ctx context.Context, q *uncertain.Object, n int) (leader func() (*core.Result, error), waiters func() ([]*core.Result, []error)) {
	t.Helper()
	var lres *core.Result
	var lerr error
	var lwg, wwg sync.WaitGroup
	lwg.Add(1)
	go func() {
		defer lwg.Done()
		lres, lerr = d.SearchKCtx(ctx, q, core.PSD, 2, allOpts)
	}()
	<-be.parked
	res, errs := make([]*core.Result, n), make([]error, n)
	for i := 0; i < n; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			res[i], errs[i] = d.SearchKCtx(context.Background(), uncertain.MustNew(0, q.Points(), nil), core.PSD, 2, allOpts)
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); d.Stats().CoalesceHits < int64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d searches joined the parked leader", d.Stats().CoalesceHits, n)
		}
	}
	return func() (*core.Result, error) { lwg.Wait(); return lres, lerr },
		func() ([]*core.Result, []error) { wwg.Wait(); return res, errs }
}

// TestDoorFlightAcrossMutation: an insert commits while the leader is
// parked with waiters joined. The waiters get the leader's answer; that
// answer is never served after the sweep; the next arrival leads a fresh
// search, and its answer is an uncached search's on the new set.
func TestDoorFlightAcrossMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	be := newParkedBackend(t, rng)
	d := NewDoor(be, DoorConfig{})
	q := testQuery(rng, 50)
	const n = 4
	leader, waiters := joinParkedLeader(t, d, be, context.Background(), q, n)

	onTop := uncertain.MustNew(9003, []geom.Point{q.Instance(0)}, nil)
	if err := d.Insert(onTop); err != nil {
		t.Fatal(err)
	}
	close(be.release)
	lres, err := leader()
	if err != nil {
		t.Fatal(err)
	}
	res, errs := waiters()
	for i := range res {
		if errs[i] != nil || res[i] != lres {
			t.Fatalf("waiter %d: err %v, shares the leader's answer: %v", i, errs[i], res[i] == lres)
		}
	}

	before := be.searches.Load()
	next, err := d.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Two searches: the answer holds the door's insert, so the fill runs a
	// second, wider one for its repair basis (repair.go).
	if be.searches.Load() != before+2 || d.Stats().Cache.Hits != 0 {
		t.Fatalf("the answer that straddled the insert was served: %+v", d.Stats())
	}
	fresh, err := be.MemStore.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, next, fresh)
	found := false
	for _, id := range next.IDs() {
		found = found || id == onTop.ID()
	}
	if !found {
		t.Fatalf("fresh search after the insert misses object %d: %v", onTop.ID(), next.IDs())
	}
}

// TestDoorLeaderFailureFallsBack: the parked leader's context is
// cancelled. Every waiter runs its own search and gets a complete answer,
// and nothing is kept.
func TestDoorLeaderFailureFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	be := newParkedBackend(t, rng)
	d := NewDoor(be, DoorConfig{})
	q := testQuery(rng, 50)
	const n = 4
	ctx, cancel := context.WithCancel(context.Background())
	leader, waiters := joinParkedLeader(t, d, be, ctx, q, n)

	cancel()
	if _, err := leader(); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	res, errs := waiters()
	fresh, err := be.MemStore.SearchKCtx(context.Background(), q, core.PSD, 2, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if errs[i] != nil || res[i] == nil || res[i].Incomplete {
			t.Fatalf("waiter %d: err %v, result %+v", i, errs[i], res[i])
		}
		assertSameAnswer(t, res[i], fresh)
	}
	if got := be.searches.Load(); got != 1+n {
		t.Fatalf("backend ran %d searches, want the leader's and one per waiter (%d)", got, 1+n)
	}
	if st := d.Stats().Cache; st.Entries != 0 {
		t.Fatalf("a failed flight left answers behind: %+v", st)
	}
}
