package front

// The invalidation conformance suite: the acceptance bar for the whole
// caching tier. Random inserts and deletes interleave with queries over
// a hot set chosen to maximize cache reuse, and EVERY served answer must
// be byte-identical (as encoded on the wire) to a fresh, uncached search
// against the backend's current snapshot. If the Door ever serves a
// stale entry — wrong shield geometry, a missed sweep, an epoch race —
// the byte comparison catches it at the exact step it happens.
//
// Two phases per backend (in-memory MemStore and the WAL-backed mutable
// disk index):
//
//  1. a deterministic interleave, checked step by step;
//  2. a concurrent soak (readers racing a mutator through the full HTTP
//     stack, meaningful under -race), followed by a quiesced sweep where
//     every hot query must again byte-match a fresh search — any stale
//     fill left behind by a race would surface here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/geom"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// mutableBackend is what the conformance walk needs: the server Backend
// surface plus direct mutations for seeding.
type mutableBackend interface {
	server.Backend
	server.Mutator
}

func TestInvalidationConformanceMem(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	store, err := NewMemStore(testObjects(rng, 80, 4, 60))
	if err != nil {
		t.Fatal(err)
	}
	runConformance(t, rng, store)
}

func TestInvalidationConformanceDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	path := filepath.Join(t.TempDir(), "conf.sdix")
	ix, err := diskindex.CreateFileMutable(path, 2, &diskindex.MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, o := range testObjects(rng, 80, 4, 60) {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	runConformance(t, rng, ix)
}

// F+SD with queries wider than the gaps in the data: the one operator
// whose rectangle predicate quantifies over the query's MBR rather than
// its instances, so a shield that asked the instances kept answers the
// inserted object belonged in. Every hot query is re-checked after every
// insert, so a stale entry is caught at the insert that made it stale.
func TestInvalidationConformanceWideFPlusSD(t *testing.T) {
	rng := rand.New(rand.NewSource(45)) // stale at the parent commit by insert 20
	around := func(id, m int, half, spread float64) *uncertain.Object {
		cx, cy := (rng.Float64()*2-1)*half, (rng.Float64()*2-1)*half
		pts := make([]geom.Point, m)
		for j := range pts {
			pts[j] = geom.Point{cx + (rng.Float64()*2-1)*spread, cy + (rng.Float64()*2-1)*spread}
		}
		return uncertain.MustNew(id, pts, nil)
	}
	objs := make([]*uncertain.Object, 200)
	for i := range objs {
		objs[i] = around(i+1, 4, 300, 25)
	}
	store, err := NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	ts, door := serveThroughDoor(t, store)
	hot := make([]*uncertain.Object, 8)
	for i := range hot {
		hot[i] = around(0, 3, 50, 120)
	}
	for ins := 0; ins < 60; ins++ {
		mustPost(t, ts.URL+"/insert", objJSON(around(50000+ins, 4, 300, 25)), http.StatusOK)
		for i, q := range hot {
			checkQueryByteEqual(t, ts, store, q, "F+SD", 1+i%2, queryBody(q, "F+SD", 1+i%2))
		}
	}
	if st := door.Stats().Cache; st.Hits == 0 || st.Repairs == 0 {
		t.Fatalf("walk proved nothing: %d hits, %d repairs", st.Hits, st.Repairs)
	}
}

// serveThroughDoor puts the full HTTP stack — handler, server, door —
// in front of backend.
func serveThroughDoor(t *testing.T, backend mutableBackend) (*httptest.Server, *Door) {
	door := NewDoor(backend, DoorConfig{})
	srv := server.NewBackend(door)
	h := NewHandler(srv, door, Config{MaxInFlight: -1})
	srv.SetFront(h)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, door
}

func runConformance(t *testing.T, rng *rand.Rand, backend mutableBackend) {
	ts, door := serveThroughDoor(t, backend)

	// Hot query set: a handful of repeated queries so the cache actually
	// fills and serves — conformance over a miss-only stream would prove
	// nothing about invalidation.
	hot := make([]*uncertain.Object, 10)
	hotBodies := make([]string, len(hot))
	ops := []string{"PSD", "SSD", "FSD"}
	for i := range hot {
		hot[i] = testQuery(rng, 60)
		hotBodies[i] = queryBody(hot[i], ops[i%len(ops)], 2)
	}

	nextID := 50000
	var inserted []int

	// Phase 1: deterministic interleave, byte-checked at every query.
	for step := 0; step < 240; step++ {
		switch {
		case step%6 == 3: // insert
			var center geom.Point
			if step%12 == 3 {
				center = geom.Point{rng.Float64() * 60, rng.Float64() * 60} // hot region
			} else {
				center = geom.Point{500 + rng.Float64()*100, 500 + rng.Float64()*100} // far
			}
			o := objAround(rng, nextID, center)
			nextID++
			mustPost(t, ts.URL+"/insert", objJSON(o), http.StatusOK)
			inserted = append(inserted, o.ID())
		case step%12 == 9 && len(inserted) > 0: // delete one of ours
			id := inserted[0]
			inserted = inserted[1:]
			mustPost(t, ts.URL+"/delete", fmt.Sprintf(`{"id":%d}`, id), http.StatusOK)
		default: // query a hot slot and byte-check it
			i := rng.Intn(len(hot))
			checkQueryByteEqual(t, ts, backend, hot[i], ops[i%len(ops)], 2, hotBodies[i])
		}
	}
	if door.Stats().Cache.Hits == 0 {
		t.Fatal("conformance walk never hit the cache — it proved nothing")
	}
	if door.Stats().Cache.Repairs == 0 {
		t.Fatal("conformance walk never repaired — mutations missed the hot region")
	}

	// Phase 2: concurrent soak, then quiesced byte-check.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				i2 := (i + w) % len(hot)
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(hotBodies[i2]))
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for m := 0; m < 40; m++ {
		if m%2 == 0 {
			o := objAround(rng, nextID, geom.Point{rng.Float64() * 60, rng.Float64() * 60})
			nextID++
			mustPost(t, ts.URL+"/insert", objJSON(o), http.StatusOK)
			inserted = append(inserted, o.ID())
		} else if len(inserted) > 0 {
			id := inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			mustPost(t, ts.URL+"/delete", fmt.Sprintf(`{"id":%d}`, id), http.StatusOK)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: whatever the races left in the cache must still be
	// byte-faithful to the final snapshot.
	for i := range hot {
		checkQueryByteEqual(t, ts, backend, hot[i], ops[i%len(ops)], 2, hotBodies[i])
	}
}

// checkQueryByteEqual posts the query over HTTP and requires the served
// candidates array to byte-equal the encoding of a fresh direct search
// on the raw backend.
func checkQueryByteEqual(t *testing.T, ts *httptest.Server, backend mutableBackend, q *uncertain.Object, op string, k int, body string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var served struct {
		Candidates json.RawMessage `json:"candidates"`
	}
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	coreOp, _ := map[string]core.Operator{"PSD": core.PSD, "SSD": core.SSD, "FSD": core.FSD, "F+SD": core.FPlusSD}[op], false
	fresh, err := backend.SearchKCtx(nil, q, coreOp, k, core.SearchOptions{Filters: core.AllFilters})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]server.QueryCandidate, len(fresh.Candidates))
	for i, c := range fresh.Candidates {
		wire[i] = server.QueryCandidate{ID: c.Object.ID(), Label: c.Object.Label(), MinDist: c.MinDist, Dominators: c.Dominators}
	}
	want, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.TrimSpace(served.Candidates)
	if len(wire) == 0 && (string(got) == "null" || len(got) == 0) {
		return // empty answers encode as null through omitted slices
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served answer diverges from fresh search:\nserved %s\nfresh  %s", got, want)
	}
}

func queryBody(q *uncertain.Object, op string, k int) string {
	inst := make([][]float64, q.Len())
	for i := 0; i < q.Len(); i++ {
		inst[i] = q.Instance(i)
	}
	b, _ := json.Marshal(map[string]interface{}{"instances": inst, "operator": op, "k": k})
	return string(b)
}

func objAround(rng *rand.Rand, id int, center geom.Point) *uncertain.Object {
	m := 1 + rng.Intn(3)
	pts := make([]geom.Point, m)
	for j := range pts {
		pts[j] = geom.Point{center[0] + rng.Float64()*2, center[1] + rng.Float64()*2}
	}
	return uncertain.MustNew(id, pts, nil)
}

func objJSON(o *uncertain.Object) string {
	inst := make([][]float64, o.Len())
	probs := make([]float64, o.Len())
	for i := 0; i < o.Len(); i++ {
		inst[i] = o.Instance(i)
		probs[i] = o.Prob(i)
	}
	b, _ := json.Marshal(map[string]interface{}{"id": o.ID(), "instances": inst, "probs": probs})
	return string(b)
}

func mustPost(t *testing.T, url, body string, want int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var eb bytes.Buffer
		eb.ReadFrom(resp.Body)
		t.Fatalf("POST %s: %d (want %d): %s", url, resp.StatusCode, want, eb.String())
	}
}
