package front

// The repair cases, each on the in-memory store and on the WAL-backed
// mutable disk index: a write that may change a kept answer rebuilds it in
// place or evicts it, and every answer served after it is byte-compared to
// a fresh search on the backend.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

func TestDoorRepairMem(t *testing.T) {
	runRepairCases(t, func(t *testing.T, objs []*uncertain.Object) mutableBackend {
		store, err := NewMemStore(objs)
		if err != nil {
			t.Fatal(err)
		}
		return store
	})
}

func TestDoorRepairDisk(t *testing.T) {
	runRepairCases(t, func(t *testing.T, objs []*uncertain.Object) mutableBackend {
		ix, err := diskindex.CreateFileMutable(filepath.Join(t.TempDir(), "repair.sdix"), 2, &diskindex.MutableOptions{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		for _, o := range objs {
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	})
}

// repairFixture is one kept P-SD k=2 answer behind the full HTTP stack.
type repairFixture struct {
	t       *testing.T
	ts      *httptest.Server
	door    *Door
	backend mutableBackend
	q       *uncertain.Object
	body    string
	filled  []int // the IDs the fill answered
}

func newRepairFixture(t *testing.T, seed int64, open func(*testing.T, []*uncertain.Object) mutableBackend) *repairFixture {
	rng := rand.New(rand.NewSource(seed))
	backend := open(t, testObjects(rng, 80, 4, 60))
	ts, door := serveThroughDoor(t, backend)
	q := testQuery(rng, 60)
	f := &repairFixture{t: t, ts: ts, door: door, backend: backend, q: q, body: queryBody(q, "PSD", 2)}
	f.filled = f.served(false)
	return f
}

// served posts the query, requires the answer to byte-equal a fresh search
// and to be a hit (or a miss), and returns its IDs.
func (f *repairFixture) served(hit bool) []int {
	f.t.Helper()
	before := f.door.Stats().Cache
	checkQueryByteEqual(f.t, f.ts, f.backend, f.q, "PSD", 2, f.body)
	after := f.door.Stats().Cache
	if got := after.Hits - before.Hits; hit && got != 1 || !hit && after.Misses-before.Misses != 1 {
		f.t.Fatalf("want a hit: %v; the query counted %d hits, %d misses", hit, got, after.Misses-before.Misses)
	}
	fresh, err := f.backend.SearchKCtx(nil, f.q, core.PSD, 2, allOpts)
	if err != nil {
		f.t.Fatal(err)
	}
	return fresh.IDs()
}

func (f *repairFixture) insert(id int, at geom.Point) {
	f.t.Helper()
	mustPost(f.t, f.ts.URL+"/insert", objJSON(uncertain.MustNew(id, []geom.Point{at}, nil)), http.StatusOK)
}

func (f *repairFixture) delete(id int) {
	f.t.Helper()
	mustPost(f.t, f.ts.URL+"/delete", fmt.Sprintf(`{"id":%d}`, id), http.StatusOK)
}

// counts requires the door's repair, invalidation and fallback counters.
func (f *repairFixture) counts(repairs, invalidations, fallbacks int64) {
	f.t.Helper()
	st := f.door.Stats().Cache
	if st.Repairs != repairs || st.Invalidations != invalidations || st.RepairFallbacks != fallbacks {
		f.t.Fatalf("%d repairs, %d invalidations, %d fallbacks; want %d, %d, %d",
			st.Repairs, st.Invalidations, st.RepairFallbacks, repairs, invalidations, fallbacks)
	}
}

// reported requires /metrics and /healthz to carry the repair counters.
func (f *repairFixture) reported(repairs, fallbacks int64) {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("sd_cache_repairs_total %d\n", repairs); !strings.Contains(string(text), want) {
		f.t.Fatalf("/metrics lacks %q", want)
	}
	resp, err = http.Get(f.ts.URL + "/healthz")
	if err != nil {
		f.t.Fatal(err)
	}
	var h server.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Front == nil {
		f.t.Fatalf("/healthz: %v, front block %v", err, h.Front)
	}
	if h.Front.CacheRepairs != repairs || h.Front.CacheRepairFallbacks != fallbacks {
		f.t.Fatalf("/healthz reports %d repairs, %d fallbacks; want %d, %d",
			h.Front.CacheRepairs, h.Front.CacheRepairFallbacks, repairs, fallbacks)
	}
}

func runRepairCases(t *testing.T, open func(*testing.T, []*uncertain.Object) mutableBackend) {
	const joiner, twin = 90001, 90002
	t.Run("an insert that joins the answer is repaired", func(t *testing.T) {
		f := newRepairFixture(t, 51, open)
		f.insert(joiner, f.q.Instance(0))
		f.counts(1, 0, 0)
		if ids := f.served(true); !containsID(ids, joiner) {
			t.Fatalf("answer %v lacks the object inserted on the query", ids)
		}
		f.reported(1, 0)
	})
	t.Run("deleting the joiner is repaired back to the fill", func(t *testing.T) {
		f := newRepairFixture(t, 52, open)
		f.insert(joiner, f.q.Instance(0))
		f.insert(joiner+1, geom.Point{5000, 5000}) // spares the answer, keeps its base
		f.delete(joiner)
		f.counts(2, 0, 0)
		if ids := f.served(true); fmt.Sprint(ids) != fmt.Sprint(f.filled) {
			t.Fatalf("answer %v after insert and delete, filled %v", ids, f.filled)
		}
	})
	t.Run("deleting a base member evicts", func(t *testing.T) {
		f := newRepairFixture(t, 53, open)
		f.insert(joiner, f.q.Instance(0))
		f.delete(f.filled[0])
		f.counts(1, 1, 0)
		f.served(false)
	})
	t.Run("an answer filled while an insert is live repairs its delete", func(t *testing.T) {
		f := newRepairFixture(t, 57, open)
		f.insert(joiner, f.q.Instance(0))
		later := *f // filled while the joiner is live: its basis has a spare of one
		later.q = uncertain.MustNew(0, []geom.Point{f.q.Instance(0), f.q.Instance(1)}, nil)
		later.body = queryBody(later.q, "PSD", 2)
		if ids := later.served(false); !containsID(ids, joiner) {
			t.Fatalf("answer %v lacks the object inserted on the query", ids)
		}
		f.delete(joiner)
		f.counts(3, 0, 0)
		f.served(true)
		ids := later.served(true)
		if containsID(ids, joiner) {
			t.Fatalf("answer %v holds the deleted object", ids)
		}
		// The spare is spent: deleting an original member evicts.
		before := f.door.Stats().Cache
		f.delete(ids[0])
		if after := f.door.Stats().Cache; after.Invalidations == before.Invalidations || after.Repairs != before.Repairs {
			t.Fatalf("deleting %d after the spare was spent: %d invalidations, %d repairs; want an eviction and no repair",
				ids[0], after.Invalidations-before.Invalidations, after.Repairs-before.Repairs)
		}
		later.served(false)
	})
	t.Run("a basis with spare keeps its base past the inserts it spares", func(t *testing.T) {
		backend := open(t, []*uncertain.Object{uncertain.MustNew(1, []geom.Point{{10, 0}}, nil)})
		ts, door := serveThroughDoor(t, backend)
		q := uncertain.MustNew(0, []geom.Point{{0, 0}}, nil)
		f := &repairFixture{t: t, ts: ts, door: door, backend: backend, q: q, body: queryBody(q, "PSD", 2)}
		f.insert(joiner, geom.Point{20, 0})
		// The answer is the whole dataset, one object the door's: spare 1,
		// out empty.
		f.served(false)
		// Behind both: spared, but in the 3-skyband.
		f.insert(twin, geom.Point{30, 0})
		f.counts(0, 0, 0)
		f.delete(joiner)
		f.counts(1, 0, 0)
		if ids := f.served(true); !containsID(ids, twin) {
			t.Fatalf("answer %v lacks the object the delete lifted", ids)
		}
	})
	t.Run("a merged answer with a MinDist tie repairs", func(t *testing.T) {
		f := newRepairFixture(t, 54, open)
		f.insert(joiner, f.q.Instance(0))
		f.insert(twin, f.q.Instance(0))
		f.counts(2, 0, 0)
		if ids := f.served(true); !containsID(ids, joiner) || !containsID(ids, twin) {
			t.Fatalf("answer %v lacks one of the two objects at distance 0", ids)
		}
		f.reported(2, 0)
	})
	t.Run("a base older than the insert log's bound evicts", func(t *testing.T) {
		f := newRepairFixture(t, 55, open)
		f.insert(joiner, f.q.Instance(0))
		for i := 0; i < maxInserts; i++ {
			f.insert(joiner+10+i, geom.Point{5000 + float64(i), 5000})
		}
		f.counts(1, 0, 0)
		f.served(true)
		near := slices.Clone(f.q.Instance(1)) // no tie with the joiner
		near[0] += 0.01
		f.insert(twin, near)
		f.counts(1, 1, 1)
		if ids := f.served(false); !containsID(ids, twin) {
			t.Fatalf("answer %v lacks the object inserted on the query", ids)
		}
	})
}

// The repair rebuilds a search from its key alone: the key of the rebuilt
// query, operator, k, metric and filters is the key it was rebuilt from,
// and a metric the key cannot name back refuses.
func TestCacheKeyRebuildsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 200; i++ {
		pts := make([]geom.Point, 1+rng.Intn(9))
		w := make([]float64, len(pts))
		for j := range pts {
			pts[j] = geom.Point{rng.NormFloat64() * 1e3, rng.Float64(), -rng.ExpFloat64()}
			w[j] = rng.Float64() + 1e-9
		}
		q := uncertain.MustNew(i, pts, w)
		m := []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chebyshev}[i%3]
		f := core.FilterConfig{StatPruning: i&4 != 0, Geometric: i&8 != 0}
		key := canonicalKey(q, core.Operators[i%len(core.Operators)], 1+i%7, m, f)
		rq, op, k, opts, ok := key.query()
		if !ok {
			t.Fatalf("query %d: the key did not rebuild", i)
		}
		if again := canonicalKey(rq, op, k, opts.Metric, opts.Filters); again != key {
			t.Fatalf("query %d: rebuilt key differs", i)
		}
	}
	q := testQuery(rng, 50)
	if _, _, _, _, ok := canonicalKey(q, core.PSD, 2, namedMetric{geom.Euclidean}, core.AllFilters).query(); ok {
		t.Fatal("a key naming a metric outside geom rebuilt")
	}
}

// namedMetric is Euclidean under a name of its own.
type namedMetric struct{ geom.Metric }

func (namedMetric) Name() string { return "euclidean-too" }
