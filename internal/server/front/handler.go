package front

// Handler is the HTTP face of the front door: per-client rate limiting,
// a global in-flight ceiling, request metrics and GET /metrics — wrapped
// around the API server (or any http.Handler). Overload policy: shed
// early, shed cheap. A shed request costs at most one map lookup under
// one lock and one compare-and-swap; it never touches the engine, never
// queues, and always carries Retry-After so well-behaved clients
// (cmd/nncclient) back off instead of retrying hot.

import (
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"spatialdom/internal/server"
)

// Config tunes a Handler. The zero value enables the global ceiling at
// its default and disables per-client limiting: no limiter is built and
// no request is keyed by client.
type Config struct {
	// RatePerSec grants each client this many requests per second
	// (token bucket); <= 0 disables per-client limiting.
	RatePerSec float64
	// Burst is the per-client bucket capacity; < 1 means 2×RatePerSec
	// (min 1).
	Burst int
	// MaxInFlight caps concurrently served gated requests process-wide;
	// 0 means DefaultMaxInFlight(), negative disables the ceiling.
	MaxInFlight int
}

// clientHeader names the header identifying a client for rate limiting;
// a request without it is keyed by its remote address host.
const clientHeader = "X-Client-ID"

// DefaultMaxInFlight is the default global ceiling: generous enough that
// only genuine overload trips it, bounded so overload sheds instead of
// stacking goroutines behind the engine.
func DefaultMaxInFlight() int {
	n := 16 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	return n
}

// Handler wraps an API handler with shedding and metrics. Build with
// NewHandler; it implements http.Handler and server.FrontReporter.
type Handler struct {
	inner   http.Handler
	door    atomic.Pointer[Door] // nil until attached: shedding/metrics only
	limiter *rateLimiter         // nil when per-client limiting is off

	// inFlight counts the gated requests being served, and is the
	// ceiling: admit raises it only while it stays at or below
	// maxInFlight (math.MaxInt64 when the ceiling is off). The gauge,
	// /healthz and capacityRetry read the same number.
	inFlight    atomic.Int64
	maxInFlight int64

	reg          *Registry
	shedRate     *Counter
	shedCapacity *Counter
	latency      map[string]*Histogram // by endpoint class
	responses    map[int]*Counter      // by status bucket (2xx..5xx)

	// Capacity-shed Retry-After derivation: while the ceiling is reached
	// the in-flight count is pinned at it, so the demand beyond capacity
	// is only observable as the sheds landing in the current one-second
	// window. winStart/winSheds track that window; now is the clock,
	// swappable by tests.
	winStart atomic.Int64 // unix second the window covers
	winSheds atomic.Int64 // capacity sheds observed in that window
	now      func() time.Time
}

// endpointClasses are the latency-histogram label values; request paths
// map onto them in classify.
var endpointClasses = []string{"query", "insert", "delete", "objects", "other"}

func classify(path string) string {
	switch path {
	case "/query":
		return "query"
	case "/insert":
		return "insert"
	case "/delete":
		return "delete"
	}
	if len(path) >= len("/objects") && path[:len("/objects")] == "/objects" {
		return "objects"
	}
	return "other"
}

// NewHandler wraps inner. door may be nil (no cache layer to report);
// when present its counters are exported on /metrics and /healthz.
func NewHandler(inner http.Handler, door *Door, cfg Config) *Handler {
	h := &Handler{
		inner:     inner,
		reg:       NewRegistry(),
		latency:   map[string]*Histogram{},
		responses: map[int]*Counter{},
		now:       time.Now,
	}
	burst := cfg.Burst
	if burst < 1 {
		burst = int(2 * cfg.RatePerSec)
		if burst < 1 {
			burst = 1
		}
	}
	h.limiter = newRateLimiter(cfg.RatePerSec, burst)
	switch {
	case cfg.MaxInFlight == 0:
		h.maxInFlight = int64(DefaultMaxInFlight())
	case cfg.MaxInFlight > 0:
		h.maxInFlight = int64(cfg.MaxInFlight)
	default:
		h.maxInFlight = math.MaxInt64
	}

	r := h.reg
	h.shedRate = r.Counter("sd_shed_rate_limited_total", "Requests shed by per-client rate limiting.")
	h.shedCapacity = r.Counter("sd_shed_capacity_total", "Requests shed by the global in-flight ceiling.")
	r.GaugeFunc("sd_inflight_requests", "Gated requests currently being served.", load(&h.inFlight))
	r.GaugeFunc("sd_rate_limited_clients", "Client token buckets currently tracked.",
		func() float64 { return float64(h.limiter.clients()) })
	for _, class := range endpointClasses {
		h.latency[class] = r.Histogram("sd_request_duration_seconds",
			"Wall time per served request.", class, DefBuckets)
	}
	for _, code := range []int{200, 300, 400, 500} {
		h.responses[code] = r.Counter("sd_responses_total_"+strconv.Itoa(code/100)+"xx",
			"Responses by status class.")
	}
	h.AttachDoor(door)
	return h
}

// AttachDoor wires a Door created after the Handler — the warming-boot
// path, where the mutable index (and hence the Door over it) exists only
// once WAL replay finishes. The first attach wins and registers the
// door's counters on /metrics; later calls are no-ops. Each series reads
// its own atomic, and the two size gauges lock each cache shard once: a
// scrape takes no lock a lookup waits on beyond those.
func (h *Handler) AttachDoor(door *Door) {
	//nnc:publish first-attach CAS: requests either shed on nil or see the wired door
	if door == nil || !h.door.CompareAndSwap(nil, door) {
		return
	}
	r, c := h.reg, door.cache
	r.CounterFunc("sd_cache_hits_total", "Semantic result cache hits.", load(&c.hits))
	r.CounterFunc("sd_cache_misses_total", "Semantic result cache misses.", load(&c.misses))
	r.CounterFunc("sd_cache_evictions_total", "Cache entries evicted by the byte budget.", load(&c.evictions))
	r.CounterFunc("sd_cache_invalidations_total", "Cache entries invalidated by mutations.", load(&c.invalidations))
	r.CounterFunc("sd_cache_repairs_total", "Cache entries a mutation changed that were rebuilt in place.", load(&c.repairs))
	r.GaugeFunc("sd_cache_bytes", "Bytes held by the result cache.",
		func() float64 { b, _ := c.size(); return float64(b) })
	r.GaugeFunc("sd_cache_entries", "Entries held by the result cache.",
		func() float64 { _, n := c.size(); return float64(n) })
	r.CounterFunc("sd_coalesce_hits_total", "Searches answered by joining an in-flight identical search.", load(&door.coalesceHits))
	r.CounterFunc("sd_mutation_epoch", "Door mutation clock.",
		func() float64 { return float64(door.epoch.Load()) })
}

// load pulls a counter's value at scrape time.
func load(v *atomic.Int64) func() float64 {
	return func() float64 { return float64(v.Load()) }
}

// Registry exposes the metrics registry so the process can register
// additional collectors (a router's counters) before serving.
func (h *Handler) Registry() *Registry { return h.reg }

// exempt paths bypass shedding entirely: health probes and scrapes must
// work during the exact overloads shedding exists for.
func exempt(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metrics"
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if path == "/metrics" {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		h.reg.ServeHTTP(w, r)
		return
	}
	if exempt(path) {
		h.inner.ServeHTTP(w, r)
		return
	}

	if h.limiter != nil {
		if ok, retry := h.limiter.allow(h.clientKey(r)); !ok {
			h.shedRate.Inc()
			h.shed(w, retry, "rate_limited", "per-client rate limit exceeded")
			return
		}
	}
	if !h.admit() {
		h.shedCapacity.Inc()
		h.shed(w, h.capacityRetry(), "overloaded", "server at concurrency ceiling")
		return
	}
	defer h.inFlight.Add(-1)

	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	h.inner.ServeHTTP(sw, r)
	h.latency[classify(path)].Observe(time.Since(start).Seconds())
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	if c, ok := h.responses[(status/100)*100]; ok {
		c.Inc()
	}
}

// admit counts one more gated request in flight unless that would pass
// the ceiling. It only ever sheds, so nothing waits: a request that finds
// the ceiling reached is answered 429, never parked. The caller
// decrements inFlight when the request is done.
func (h *Handler) admit() bool {
	for {
		n := h.inFlight.Load()
		if n >= h.maxInFlight {
			return false
		}
		if h.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// clientKey identifies the caller for rate limiting: the client header
// when present, else the remote host (ignoring the ephemeral port, so
// one machine's connections share a bucket).
func (h *Handler) clientKey(r *http.Request) string {
	if v := r.Header.Get(clientHeader); v != "" {
		return v
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// capacityRetry derives the Retry-After for a capacity shed from the
// current queue-depth estimate instead of a constant second: the requests
// being served (pinned at the ceiling while shedding) plus the demand shed
// in the current one-second window, measured against the ceiling. Every
// ceiling's worth of excess demand pushes the advice out another second,
// so a thundering herd is told to spread out proportionally to its size.
// The window counters race benignly — a reset may drop a few sheds, which
// only rounds the estimate down — and the advice is capped so a burst
// never tells clients to go away for minutes.
func (h *Handler) capacityRetry() time.Duration {
	sec := h.now().Unix()
	if h.winStart.Load() != sec {
		h.winStart.Store(sec)
		h.winSheds.Store(0)
	}
	limit := h.maxInFlight
	depth := h.inFlight.Load() + h.winSheds.Add(1)
	secs := 1 + (depth-limit)/limit
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// maxRetryAfter caps capacity-shed backoff advice in seconds.
const maxRetryAfter = 30

// shed answers 429 with Retry-After and the API's JSON error shape.
func (h *Handler) shed(w http.ResponseWriter, retry time.Duration, code, msg string) {
	server.SetRetryAfter(w, retry)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	w.Write([]byte(`{"error":"` + msg + `","code":"` + code + `"}` + "\n"))
}

// statusWriter records the status code for the response counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

// --- healthz integration ------------------------------------------------------

// FrontStats implements server.FrontReporter: the serving-tier counters
// /healthz folds into its report.
func (h *Handler) FrontStats() server.FrontStats {
	fs := server.FrontStats{
		ShedRateLimited: h.shedRate.Value(),
		ShedCapacity:    h.shedCapacity.Value(),
		InFlight:        h.inFlight.Load(),
	}
	if d := h.door.Load(); d != nil {
		ds := d.Stats()
		fs.CacheHits = ds.Cache.Hits
		fs.CacheMisses = ds.Cache.Misses
		fs.CacheEvictions = ds.Cache.Evictions
		fs.CacheInvalidations = ds.Cache.Invalidations
		fs.CacheRepairs = ds.Cache.Repairs
		fs.CacheRepairFallbacks = ds.Cache.RepairFallbacks
		fs.CacheBytes = ds.Cache.Bytes
		fs.CacheEntries = ds.Cache.Entries
		fs.CoalesceHits = ds.CoalesceHits
		fs.Epoch = ds.Epoch
	}
	return fs
}
