package front

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// countingStore is a MemStore that counts Dim calls and searches: building
// a query asks Dim of every body it decodes, a repeat answered from its
// alias asks nothing, and a cache hit searches nothing.
type countingStore struct {
	*MemStore
	dims     atomic.Int64
	searches atomic.Int64
}

func (s *countingStore) Dim() int {
	s.dims.Add(1)
	return s.MemStore.Dim()
}

func (s *countingStore) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	s.searches.Add(1)
	return s.MemStore.SearchKCtx(ctx, q, op, k, opts)
}

// scriptedBackend answers every search with the one object it holds as its
// only candidate — complete, or degraded when partial is set — and reports
// live as its Len, which a delete of any other ID shrinks. A real index
// takes neither shape: its k-skyband holds at least k objects while Len ≥ k.
type scriptedBackend struct {
	cand     *uncertain.Object
	live     atomic.Int64
	partial  bool
	searches atomic.Int64
}

func (s *scriptedBackend) Len() int { return int(s.live.Load()) }
func (s *scriptedBackend) Dim() int { return s.cand.Dim() }

func (s *scriptedBackend) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	s.searches.Add(1)
	res := &core.Result{Operator: op, Candidates: []core.Candidate{{Object: s.cand, MinDist: 1}}, Incomplete: s.partial}
	if s.partial {
		return res, &core.PartialResultError{Result: res, UnreadableNodes: 1}
	}
	return res, nil
}

func (s *scriptedBackend) Mutable() bool                  { return true }
func (s *scriptedBackend) Insert(*uncertain.Object) error { s.live.Add(1); return nil }
func (s *scriptedBackend) Delete(int) (bool, error)       { s.live.Add(-1); return true, nil }

// aliasCount is the alias table's size.
func (c *resultCache) aliasCount() int {
	n := 0
	for i := range c.aliases {
		as := &c.aliases[i]
		as.mu.Lock()
		n += len(as.entries)
		as.mu.Unlock()
	}
	return n
}

// aliasStack is server → door → backend, driven in process.
type aliasStack struct {
	t    *testing.T
	srv  *server.Server
	door *Door
}

func newAliasStack(t *testing.T, backend server.Backend, cfg DoorConfig) *aliasStack {
	door := NewDoor(backend, cfg)
	return &aliasStack{t: t, srv: server.NewBackend(door), door: door}
}

func (s *aliasStack) post(path, body string) (int, []byte) {
	s.t.Helper()
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// query posts body to /query and demands status.
func (s *aliasStack) query(body string, status int) []byte {
	s.t.Helper()
	code, out := s.post("/query", body)
	if code != status {
		s.t.Fatalf("/query answered %d, want %d: %s", code, status, out)
	}
	return out
}

// freshCandidates is what an uncached search on backend answers for q, as
// the wire's candidates array.
func freshCandidates(t *testing.T, backend server.Backend, q *uncertain.Object, op core.Operator, k int) []byte {
	t.Helper()
	res, err := backend.SearchKCtx(context.Background(), q, op, k, allOpts)
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]server.QueryCandidate, len(res.Candidates))
	for i, c := range res.Candidates {
		wire[i] = server.QueryCandidate{ID: c.Object.ID(), Label: c.Object.Label(), MinDist: c.MinDist, Dominators: c.Dominators}
	}
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func candidatesOf(t *testing.T, body []byte) ([]byte, []int) {
	t.Helper()
	var resp struct {
		Candidates json.RawMessage `json:"candidates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var ids []struct {
		ID int `json:"id"`
	}
	json.Unmarshal(resp.Candidates, &ids)
	out := make([]int, len(ids))
	for i, c := range ids {
		out[i] = c.ID
	}
	return resp.Candidates, out
}

// TestDoorBodyAliasFollowsEntry: a kept /query answer is found again by the
// exact bytes of the body that filled it, before that body is decoded, and
// the alias lives exactly as long as the entry — every mutation, budget or
// degradation that keeps the entry from being served keeps the alias from
// serving it too.
func TestDoorBodyAliasFollowsEntry(t *testing.T) {
	memStack := func(t *testing.T, seed int64, cfg DoorConfig) (*aliasStack, *countingStore, *uncertain.Object, string) {
		rng := rand.New(rand.NewSource(seed))
		ms, err := NewMemStore(testObjects(rng, 60, 4, 50))
		if err != nil {
			t.Fatal(err)
		}
		store := &countingStore{MemStore: ms}
		q := testQuery(rng, 50)
		return newAliasStack(t, store, cfg), store, q, queryBody(q, "PSD", 2)
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"a: a repeat is served without reaching the decoder", func(t *testing.T) {
			s, store, _, body := memStack(t, 71, DoorConfig{})
			first := s.query(body, 200)
			dims, before := store.dims.Load(), s.door.Stats()
			if again := s.query(body, 200); !bytes.Equal(again, first) {
				t.Fatalf("repeat answered\n%s\nfirst answer\n%s", again, first)
			}
			after := s.door.Stats()
			if store.dims.Load() != dims {
				t.Fatal("the repeat was decoded")
			}
			if after.Cache.Hits != before.Cache.Hits+1 || after.Cache.Misses != before.Cache.Misses {
				t.Fatalf("the repeat counted %+v, then %+v; want one more hit", before.Cache, after.Cache)
			}
		}},
		{"b: an insert the shield cannot rule out repairs the entry its alias finds", func(t *testing.T) {
			s, store, q, body := memStack(t, 72, DoorConfig{})
			s.query(body, 200)
			onTop := uncertain.MustNew(9002, []geom.Point{q.Instance(0)}, nil)
			if err := s.door.Insert(onTop); err != nil {
				t.Fatal(err)
			}
			if st := s.door.Stats().Cache; st.Repairs != 1 || st.Invalidations != 0 {
				t.Fatalf("the insert repaired %d entries and invalidated %d, want 1 and 0", st.Repairs, st.Invalidations)
			}
			hits, dims := s.door.Stats().Cache.Hits, store.dims.Load()
			got, ids := candidatesOf(t, s.query(body, 200))
			if s.door.Stats().Cache.Hits != hits+1 || store.dims.Load() != dims {
				t.Fatal("the repeat after a repairing insert was not an undecoded hit")
			}
			if want := freshCandidates(t, store.MemStore, q, core.PSD, 2); !bytes.Equal(got, want) {
				t.Fatalf("served %s, fresh search %s", got, want)
			}
			if !containsID(ids, 9002) {
				t.Fatalf("the repaired answer %v lacks the inserted object", ids)
			}
		}},
		{"c: deleting a candidate turns the repeat into a fresh miss", func(t *testing.T) {
			s, store, q, body := memStack(t, 73, DoorConfig{})
			_, ids := candidatesOf(t, s.query(body, 200))
			if ok, err := s.door.Delete(ids[0]); !ok || err != nil {
				t.Fatalf("delete(%d) = %v, %v", ids[0], ok, err)
			}
			misses := s.door.Stats().Cache.Misses
			got, now := candidatesOf(t, s.query(body, 200))
			if s.door.Stats().Cache.Misses != misses+1 {
				t.Fatal("the repeat after deleting a candidate was not a miss")
			}
			if want := freshCandidates(t, store.MemStore, q, core.PSD, 2); !bytes.Equal(got, want) {
				t.Fatalf("served %s, fresh search %s", got, want)
			}
			if containsID(now, ids[0]) {
				t.Fatalf("the answer %v still holds deleted object %d", now, ids[0])
			}
		}},
		{"d: a budget that keeps nothing never creates an alias", func(t *testing.T) {
			s, store, _, body := memStack(t, 74, DoorConfig{CacheBytes: -1})
			s.query(body, 200)
			dims := store.dims.Load()
			s.query(body, 200)
			if n := s.door.cache.aliasCount(); n != 0 {
				t.Fatalf("%d aliases with caching off", n)
			}
			if store.dims.Load() == dims || s.door.Stats().Cache.Hits != 0 {
				t.Fatal("a repeat with caching off was not decoded and searched")
			}
		}},
		{"e: a 206 answer never gets an alias", func(t *testing.T) {
			be := &scriptedBackend{cand: testObject(rand.New(rand.NewSource(75)), 1, 2, 50), partial: true}
			be.live.Store(10)
			s := newAliasStack(t, be, DoorConfig{})
			body := queryBody(testQuery(rand.New(rand.NewSource(76)), 50), "PSD", 2)
			s.query(body, http.StatusPartialContent)
			s.query(body, http.StatusPartialContent)
			if n := s.door.cache.aliasCount(); n != 0 {
				t.Fatalf("%d aliases for a degraded answer", n)
			}
			if be.searches.Load() != 2 {
				t.Fatalf("degraded answers were served from the table: %d searches for 2 queries", be.searches.Load())
			}
		}},
		{"f: an equivalent body with other whitespace hits by key and gets the same bytes", func(t *testing.T) {
			s, store, _, body := memStack(t, 77, DoorConfig{})
			first := s.query(body, 200)
			spaced := " " + strings.ReplaceAll(body, ",", ", ") + "\n"
			dims, before := store.dims.Load(), s.door.Stats()
			if again := s.query(spaced, 200); !bytes.Equal(again, first) {
				t.Fatalf("equivalent body answered\n%s\nfirst answer\n%s", again, first)
			}
			after := s.door.Stats()
			if store.dims.Load() == dims {
				t.Fatal("a body that is not the alias skipped the decoder")
			}
			if after.Cache.Hits != before.Cache.Hits+1 || after.Cache.Misses != before.Cache.Misses {
				t.Fatalf("the equivalent body counted %+v, then %+v; want one more hit", before.Cache, after.Cache)
			}
			if n := s.door.cache.aliasCount(); n != 1 {
				t.Fatalf("%d aliases for one entry", n)
			}
		}},
		{"g: once deletes shrink Len below k the repeat answers 400", func(t *testing.T) {
			be := &scriptedBackend{cand: testObject(rand.New(rand.NewSource(78)), 1, 2, 50)}
			be.live.Store(5)
			s := newAliasStack(t, be, DoorConfig{})
			body := queryBody(testQuery(rand.New(rand.NewSource(79)), 50), "PSD", 4)
			s.query(body, 200)
			s.query(body, 200)
			hits := s.door.Stats().Cache.Hits
			if hits != 1 {
				t.Fatalf("%d hits before the deletes, want 1", hits)
			}
			for id := 2; be.Len() >= 4; id++ {
				if ok, err := s.door.Delete(id); !ok || err != nil {
					t.Fatalf("delete(%d) = %v, %v", id, ok, err)
				}
			}
			if s.door.cache.aliasCount() != 1 {
				t.Fatal("deleting non-candidates dropped the entry")
			}
			out := s.query(body, http.StatusBadRequest)
			if !bytes.Contains(out, []byte("k=4 out of range")) {
				t.Fatalf("400 body %s", out)
			}
			if s.door.Stats().Cache.Hits != hits {
				t.Fatal("the refused repeat counted a hit")
			}
		}},
		{"h: once every entry has left the alias table is empty", func(t *testing.T) {
			rng := rand.New(rand.NewSource(80))
			ms, err := NewMemStore(testObjects(rng, 60, 4, 50))
			if err != nil {
				t.Fatal(err)
			}
			s := newAliasStack(t, ms, DoorConfig{CacheBytes: 48 << 10})
			bodies := make([]string, 60)
			for i := range bodies {
				bodies[i] = queryBody(testQuery(rng, 50), "PSD", 2)
				s.query(bodies[i], 200)
			}
			st := s.door.Stats().Cache
			if st.Evictions == 0 {
				t.Fatalf("the budget evicted nothing: %+v", st)
			}
			if n := s.door.cache.aliasCount(); int64(n) != st.Entries {
				t.Fatalf("%d aliases for %d kept entries after evictions", n, st.Entries)
			}
			for id := 1; id <= 60; id++ {
				if ok, err := s.door.Delete(id); !ok || err != nil {
					t.Fatalf("delete(%d) = %v, %v", id, ok, err)
				}
			}
			if st := s.door.Stats().Cache; st.Entries != 0 {
				t.Fatalf("%d entries survive deleting every object", st.Entries)
			}
			if n := s.door.cache.aliasCount(); n != 0 {
				t.Fatalf("%d aliases outlive their entries", n)
			}
		}},
		{"i: an entry tagged behind the clock is not served by its alias, and leaves", func(t *testing.T) {
			c := newResultCache(1 << 20)
			key := canonicalKey(testQuery(rand.New(rand.NewSource(81)), 50), core.PSD, 2, geom.Euclidean, core.AllFilters)
			_, e, _ := c.lookup(key, 5)
			res := &core.Result{}
			c.land(e, res, nil, &kept{res: res, shield: new(core.AnswerShield), base: 5, bytes: 10}, "body")
			if res, _, _ := c.repeat([]byte("body"), 5, 10); res == nil {
				t.Fatal("a current entry was not found by its alias")
			}
			if res, _, _ := c.repeat([]byte("body"), 6, 10); res != nil {
				t.Fatal("an entry filled before the last mutation was served by its alias")
			}
			if n := c.aliasCount(); n != 0 {
				t.Fatalf("%d aliases left after the stale entry was seen", n)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func containsID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
