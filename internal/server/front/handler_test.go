package front

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdom/internal/server"
)

// newStack builds the full serving stack: Handler → Server → Door →
// MemStore, returning the pieces.
func newStack(t *testing.T, seed int64, n int, cfg Config) (*Handler, *server.Server, *Door, *MemStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store, err := NewMemStore(testObjects(rng, n, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	door := NewDoor(store, DoorConfig{})
	srv := server.NewBackend(door)
	h := NewHandler(srv, door, cfg)
	srv.SetFront(h)
	return h, srv, door, store
}

func postQuery(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

const simpleQuery = `{"instances":[[10,10],[11,11]],"operator":"PSD","k":1}`

func TestHandlerRateLimitSheds(t *testing.T) {
	h, _, _, _ := newStack(t, 20, 30, Config{RatePerSec: 0.5, Burst: 1, MaxInFlight: -1})
	hdr := map[string]string{"X-Client-ID": "alice"}
	if w := postQuery(t, h, simpleQuery, hdr); w.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", w.Code, w.Body)
	}
	w := postQuery(t, h, simpleQuery, hdr)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request not shed: %d", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", w.Header().Get("Retry-After"))
	}
	var body struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Code != "rate_limited" {
		t.Fatalf("shed body %s (err %v)", w.Body, err)
	}
	// A different client is unaffected.
	if w := postQuery(t, h, simpleQuery, map[string]string{"X-Client-ID": "bob"}); w.Code != http.StatusOK {
		t.Fatalf("other client shed: %d", w.Code)
	}
	if h.shedRate.Value() != 1 {
		t.Fatalf("shed counter = %d", h.shedRate.Value())
	}
}

func TestHandlerExemptPathsNeverShed(t *testing.T) {
	h, _, _, _ := newStack(t, 21, 30, Config{RatePerSec: 0.0001, Burst: 1, MaxInFlight: 1})
	hdr := map[string]string{"X-Client-ID": "alice"}
	postQuery(t, h, simpleQuery, hdr) // drain the bucket
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Client-ID", "alice")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s answered %d under exhausted bucket", path, w.Code)
		}
	}
}

func TestHandlerCapacityCeiling(t *testing.T) {
	h, _, _, _ := newStack(t, 22, 30, Config{MaxInFlight: 1})
	// Occupy the only slot with a slow request through a stub inner.
	block := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
		w.WriteHeader(http.StatusOK)
	})
	h2 := NewHandler(inner, nil, Config{MaxInFlight: 1})
	_ = h

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(simpleQuery))
		h2.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// Wait until the slot is held.
	deadline := time.After(2 * time.Second)
	for h2.inFlight.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first request never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	w := postQuery(t, h2, simpleQuery, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-ceiling request answered %d", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("no Retry-After on capacity shed")
	}
	if h2.shedCapacity.Value() != 1 {
		t.Fatalf("capacity shed counter = %d", h2.shedCapacity.Value())
	}
	if got := h2.inFlight.Load(); got != 1 {
		t.Fatalf("a shed request moved the in-flight count to %d, want 1", got)
	}
	close(block)
	wg.Wait()
	// The released slot admits the next request.
	if got := h2.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight after release = %d, want 0", got)
	}
	if w := postQuery(t, h2, simpleQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("request after release answered %d", w.Code)
	}
	if h2.shedCapacity.Value() != 1 {
		t.Fatalf("capacity shed counter after release = %d", h2.shedCapacity.Value())
	}
}

// TestCeilingTryAcquire: admit claims in-flight slots up to the ceiling
// without blocking, refuses past it without moving the count, and a
// released slot is admitted again.
func TestCeilingTryAcquire(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	h := NewHandler(inner, nil, Config{MaxInFlight: 2})
	if !h.admit() || !h.admit() {
		t.Fatal("fresh ceiling refused slots")
	}
	if h.admit() {
		t.Fatal("over-admitted")
	}
	if got := h.inFlight.Load(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}
	h.inFlight.Add(-1)
	if got := h.inFlight.Load(); got != 1 {
		t.Fatalf("inFlight after release = %d, want 1", got)
	}
	if !h.admit() {
		t.Fatal("released slot not reusable")
	}
}

// TestCapacityRetryAfterScalesWithDepth pins the clock and the in-flight
// count and walks the queue-depth estimate: each ceiling's worth of sheds
// within the window pushes Retry-After out another second, a new window
// resets the advice, and the cap bounds a thundering herd's backoff.
func TestCapacityRetryAfterScalesWithDepth(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	h := NewHandler(inner, nil, Config{MaxInFlight: 2})
	clock := time.Unix(1_000_000, 0)
	h.now = func() time.Time { return clock }
	// Hold both slots so every gated request sheds at the ceiling.
	for i := 0; i < 2; i++ {
		if !h.admit() {
			t.Fatalf("slot %d not acquirable", i)
		}
	}
	defer h.inFlight.Add(-2)

	shedRetry := func() int {
		t.Helper()
		w := postQuery(t, h, simpleQuery, nil)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("over-ceiling request answered %d", w.Code)
		}
		ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After = %q: %v", w.Header().Get("Retry-After"), err)
		}
		return ra
	}

	// limit=2, in-flight pinned at 2: depth grows by one per shed, and the
	// advice steps up every two sheds.
	for i, want := range []int{1, 2, 2, 3, 3} {
		if got := shedRetry(); got != want {
			t.Fatalf("shed %d: Retry-After = %d, want %d", i+1, got, want)
		}
	}

	// A new one-second window forgets the old herd.
	clock = clock.Add(time.Second)
	if got := shedRetry(); got != 1 {
		t.Fatalf("fresh window: Retry-After = %d, want 1", got)
	}

	// The advice is capped no matter how deep the herd gets.
	for i := 0; i < 2*maxRetryAfter; i++ {
		shedRetry()
	}
	if got := shedRetry(); got != maxRetryAfter {
		t.Fatalf("deep herd: Retry-After = %d, want cap %d", got, maxRetryAfter)
	}
}

func TestMetricsEndpointExposition(t *testing.T) {
	h, _, _, _ := newStack(t, 23, 30, Config{})
	// Generate one served query and one cache hit.
	postQuery(t, h, simpleQuery, nil)
	postQuery(t, h, simpleQuery, nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(w.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE sd_request_duration_seconds histogram",
		`sd_request_duration_seconds_bucket{op="query",le="+Inf"}`,
		`sd_request_duration_seconds_count{op="query"} 2`,
		"# TYPE sd_cache_hits_total counter",
		"sd_cache_hits_total 1",
		"sd_cache_misses_total 1",
		"# TYPE sd_cache_repairs_total counter",
		"sd_cache_repairs_total 0",
		"sd_shed_rate_limited_total 0",
		"sd_inflight_requests 0",
		"sd_coalesce_hits_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	// One HELP/TYPE header per family even with 7 labeled histograms.
	if n := strings.Count(text, "# TYPE sd_request_duration_seconds histogram"); n != 1 {
		t.Fatalf("histogram family header rendered %d times", n)
	}
}

func TestHealthzCarriesFrontStats(t *testing.T) {
	h, _, _, _ := newStack(t, 24, 30, Config{})
	postQuery(t, h, simpleQuery, nil)
	postQuery(t, h, simpleQuery, nil)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var body server.Health
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Front == nil {
		t.Fatalf("healthz: %s", w.Body)
	}
	if body.Front.CacheHits != 1 || body.Front.CacheMisses != 1 {
		t.Fatalf("front stats: %+v", body.Front)
	}
}

func TestWarmingServerAnswers503ThenServes(t *testing.T) {
	srv := server.NewWarming("wal replay")
	h := NewHandler(srv, nil, Config{})

	// Queries answer 503 warming; readyz 503 with the reason; healthz
	// 200 degraded.
	w := postQuery(t, h, simpleQuery, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during warmup: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable || !strings.Contains(rw.Body.String(), "wal replay") {
		t.Fatalf("readyz during warmup: %d %s", rw.Code, rw.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), "degraded") {
		t.Fatalf("healthz during warmup: %d %s", rw.Code, rw.Body)
	}

	// Attach flips it live.
	rng := rand.New(rand.NewSource(25))
	store, err := NewMemStore(testObjects(rng, 20, 3, 50))
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(NewDoor(store, DoorConfig{}))
	if w := postQuery(t, h, simpleQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("query after attach: %d %s", w.Code, w.Body)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("readyz after attach: %d", rw.Code)
	}
}

// Capability unwrap: a Door over a MemStore must still serve /objects.
func TestCapabilityUnwrapThroughDoor(t *testing.T) {
	h, _, _, _ := newStack(t, 26, 25, Config{})
	req := httptest.NewRequest(http.MethodGet, "/objects", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/objects through the door: %d %s", w.Code, w.Body)
	}
	var sum struct {
		Objects int `json:"objects"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil || sum.Objects != 25 {
		t.Fatalf("objects summary %s (err %v)", w.Body, err)
	}
}

// The serving gate: N distinct P-SD k=4 queries through the whole stack
// (Handler → Server → Door → MemStore), then the same N replayed several
// times. Nothing may error, every replay must be a cache hit that
// reproduces the miss's bytes and runs no search below the door, and the
// fastest replay pass must run at least 3× faster than the first — a hit
// skips the engine entirely, so the ratio holds on any machine; the
// fastest of several passes is the one a busy machine disturbed least.
func TestCachedReplayBeatsUncached(t *testing.T) {
	const n, replays = 48, 5
	ms, err := NewMemStore(testObjects(rand.New(rand.NewSource(30)), 1500, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{MemStore: ms}
	door := NewDoor(store, DoorConfig{})
	srv := server.NewBackend(door)
	h := NewHandler(srv, door, Config{MaxInFlight: -1})
	srv.SetFront(h)
	rng := rand.New(rand.NewSource(31))
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = queryBody(testQuery(rng, 50), "PSD", 4)
	}
	pass := func() ([]string, time.Duration) {
		out := make([]string, n)
		start := time.Now()
		for i, b := range bodies {
			w := postQuery(t, h, b, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("query %d: %d %s", i, w.Code, w.Body)
			}
			out[i] = w.Body.String()
		}
		return out, time.Since(start)
	}

	misses, cold := pass()
	if s := door.Stats().Cache; s.Hits != 0 || s.Misses != n || store.searches.Load() != n {
		t.Fatalf("first pass: %d hits, %d misses, %d searches, want 0, %d and %d", s.Hits, s.Misses, store.searches.Load(), n, n)
	}
	var hot time.Duration
	for r := 0; r < replays; r++ {
		hits, took := pass()
		for i := range hits {
			if hits[i] != misses[i] {
				t.Fatalf("replay %d, query %d: hit body differs from miss body\nhit  %s\nmiss %s", r, i, hits[i], misses[i])
			}
		}
		if r == 0 || took < hot {
			hot = took
		}
	}
	if got := door.Stats().Cache.Hits; got != replays*n {
		t.Fatalf("replays: %d cache hits, want %d", got, replays*n)
	}
	if got := store.searches.Load() - n; got != 0 {
		t.Fatalf("the replays ran %d searches below the door", got)
	}
	if hot*3 > cold {
		t.Fatalf("fastest replay took %v, first pass %v: cached answers are not 3x faster", hot, cold)
	}
	t.Logf("first pass %v, fastest of %d replays %v (%.0fx)", cold, replays, hot, float64(cold)/float64(hot))
}
