// Package server exposes NN-candidate search over HTTP with a small JSON
// API, turning the library into a queryable service:
//
//	GET  /healthz              → liveness (Health): {"status":"ok"|"degraded", ...}
//	GET  /readyz               → readiness probe (503 until the backend serves)
//	GET  /objects              → dataset summary
//	GET  /objects/{id}         → one object
//	POST /query                → NN candidates for a query object
//	POST /shard/query          → a shard's k-skyband for the cluster router (shard.go)
//	POST /insert               → insert one object (mutable disk backend)
//	POST /delete               → delete one object by id (mutable disk backend)
//
// The query request body:
//
//	{
//	  "instances": [[x1,...,xd], ...],
//	  "weights":   [w1, ...],          // optional, uniform when omitted
//	  "operator":  "PSD",              // SSD | SSSD | PSD | FSD | F+SD
//	  "k":         1,                  // optional, k-NN candidates
//	  "metric":    "euclidean"         // optional: euclidean|manhattan|chebyshev
//	}
//
// and the response carries the candidates in emission order with their
// exact minimum distances, plus timing and dominance-check statistics.
// Every body-carrying endpoint shares one request pipeline (pipeline.go):
// bodies are POST-only, bounded (413 payload_too_large past 8 MiB) and
// strict about field names, and both query endpoints validate alike.
//
// Degraded answers are never silent: when the backend had to skip
// unreadable (quarantined) pages, /query answers 206 Partial Content with
// "incomplete": true and the skipped-subtree counts. Handler panics are
// recovered into 500 JSON responses and counted, so one bad request cannot
// take the process down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/faults"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// Backend is what the server needs from an index: sizing for validation
// and the context-aware engine entry point. Both core.Index and
// diskindex.Index satisfy it, so one server binary fronts either storage
// layer; a canceled request context aborts the search on both.
//
// SearchKCtx must be safe for concurrent calls — net/http serves every
// request on its own goroutine and the server adds no serialization of
// its own. Both built-in backends qualify: the in-memory index is
// immutable during searches, and the disk index runs each search over a
// private page lease against a sharded buffer pool.
type Backend interface {
	Len() int
	Dim() int
	SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error)
}

// ObjectLister is the optional Backend capability behind GET /objects and
// GET /objects/{id}. The in-memory index implements it; backends that
// can't enumerate cheaply (disk) simply don't, and those endpoints answer
// 501.
type ObjectLister interface {
	Objects() []*uncertain.Object
	Object(id int) *uncertain.Object
}

// Repeater is the optional Backend capability behind a repeated /query: a
// backend that keeps answers (the front door) remembers the exact body
// that filled each one, so a byte-identical repeat is answered before the
// body is decoded. Like Mutator it is asked of the outermost backend only:
// a decorator that does not implement it hides it.
type Repeater interface {
	// Repeat returns the kept answer body filled, with its operator and k,
	// when it is still servable and k <= Len; otherwise a nil Result, and
	// the caller decodes the body as usual.
	Repeat(body []byte) (*core.Result, core.Operator, int)
	// SearchBody is SearchKCtx for a /query whose body was body; body is
	// not retained.
	SearchBody(ctx context.Context, body []byte, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error)
}

// Optional Backend capabilities surfaced by /healthz and /readyz. The
// disk-resident index implements the first three, the in-memory index
// AccessReporter, the router RouterReporter — the endpoints degrade
// gracefully to what the backend can report.
type (
	// HealthChecker lets the backend veto readiness (e.g. the disk index
	// re-validates its super page).
	HealthChecker interface {
		Healthy(ctx context.Context) error
	}
	// FaultReporter exposes the cumulative storage fault counters.
	FaultReporter interface {
		FaultStats() faults.Stats
	}
	// AccessReporter exposes cumulative storage access counters (the
	// buffer pool's).
	AccessReporter interface {
		AccessStats() core.IOStats
	}
	// RouterReporter exposes a scatter-gather router's per-shard health
	// (breaker states, retries, hedges, degraded shards) for /healthz.
	// Defined here rather than importing internal/cluster so the
	// dependency keeps pointing cluster → server.
	RouterReporter interface {
		ClusterHealth() ClusterHealth
	}
)

// BackendWrapper is implemented by decorating backends (the front
// door's cache/coalescing layer) that forward searches to an inner
// backend. Capability probes walk the chain so a decorator never masks
// what the real backend can do — a Door over the disk index still
// reports fault counters, and a Door over the in-memory index still
// serves /objects.
type BackendWrapper interface {
	Inner() Backend
}

// capability resolves an optional backend capability, unwrapping
// decorators until a layer implements it. Mutations deliberately do NOT
// use this: they must dispatch through the outermost layer so cache
// invalidation can intercept them (see mutate.go).
func capability[T any](b Backend) (T, bool) {
	for b != nil {
		if c, ok := b.(T); ok {
			return c, true
		}
		w, ok := b.(BackendWrapper)
		if !ok {
			break
		}
		b = w.Inner()
	}
	var zero T
	return zero, false
}

// FrontStats is the serving-tier counter block a front door reports into
// /healthz (the same numbers /metrics exposes individually).
type FrontStats struct {
	CacheHits          int64  `json:"cache_hits"`
	CacheMisses        int64  `json:"cache_misses"`
	CacheEvictions     int64  `json:"cache_evictions"`
	CacheInvalidations int64  `json:"cache_invalidations"`
	CacheBytes         int64  `json:"cache_bytes"`
	CacheEntries       int64  `json:"cache_entries"`
	CoalesceHits       int64  `json:"coalesce_hits"`
	CacheNegativeHits  int64  `json:"cache_negative_hits"`
	ShedRateLimited    int64  `json:"shed_rate_limited"`
	ShedCapacity       int64  `json:"shed_capacity"`
	InFlight           int64  `json:"in_flight"`
	Epoch              uint64 `json:"epoch"`
}

// FrontReporter is implemented by the front-door HTTP middleware; wire
// it with SetFront so /healthz can fold the serving stats in.
type FrontReporter interface {
	FrontStats() FrontStats
}

// Health is the GET /healthz body, and what the router's discovery and
// nncclient -smoke decode. A pointer or omitempty field is present exactly
// when it has something to say: Objects and Dim once a backend is attached,
// the storage blocks when the backend reports them, Cluster behind a
// router, Front behind the front door.
type Health struct {
	// Status is "ok" or "degraded"; Reason names why when degraded.
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	Time   string `json:"time"`

	Objects *int `json:"objects,omitempty"`
	Dim     *int `json:"dim,omitempty"`
	// Panics counts handler panics recovered into 500s.
	Panics int64 `json:"panics,omitempty"`

	// QuarantinedPages repeats Faults.QuarantinedPages at top level.
	QuarantinedPages *int64        `json:"quarantined_pages,omitempty"`
	Faults           *faults.Stats `json:"faults,omitempty"`
	IO               *IOHealth     `json:"io,omitempty"`

	Cluster *ClusterHealth `json:"cluster,omitempty"`
	// UnreachableShards is Cluster.Degraded when non-zero.
	UnreachableShards int `json:"unreachable_shards,omitempty"`

	Front *FrontStats `json:"front,omitempty"`
}

// IOHealth is the /healthz "io" block: an AccessReporter's counters.
type IOHealth struct {
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	PageReads  int64 `json:"page_reads"`
	PageWrites int64 `json:"page_writes"`
}

// Server is the HTTP handler set over one backend. Search endpoints work
// on every backend; the mutation endpoints require the Mutator
// capability (the mutable disk index) and answer 501 otherwise.
//
// The backend is published atomically: a server built with NewWarming
// starts answering health probes (and 503s on everything else)
// immediately, and Attach flips it to serving once the backend — e.g. a
// mutable disk index mid WAL replay — is ready. /readyz reports 503 with
// the warming reason until then.
type Server struct {
	bv  atomic.Value // of backendBox; empty box while warming
	mux *http.ServeMux
	// panics counts handler panics recovered into 500 responses.
	panics atomic.Int64
	// warmReason names what boot is waiting on while no backend is
	// attached ("wal replay"); fixed at construction.
	warmReason string
	// front, when set, contributes serving-tier stats to /healthz.
	front atomic.Value // of frontBox
}

type backendBox struct{ b Backend }

type frontBox struct{ f FrontReporter }

// New builds a server over the objects with the in-memory index as its
// backend.
func New(objs []*uncertain.Object) (*Server, error) {
	idx, err := core.NewIndex(objs)
	if err != nil {
		return nil, err
	}
	return NewBackend(idx), nil
}

// NewBackend builds a server over an existing backend (in-memory or
// disk-resident).
func NewBackend(b Backend) *Server {
	s := newServer("")
	s.Attach(b)
	return s
}

// NewWarming builds a server with no backend yet: health endpoints work
// immediately ( /readyz answers 503 citing reason), every other endpoint
// answers 503 service-warming, and Attach brings the server live. This
// is how a mutable boot serves probes during WAL replay instead of
// refusing connections.
func NewWarming(reason string) *Server {
	if reason == "" {
		reason = "backend warming"
	}
	return newServer(reason)
}

func newServer(warmReason string) *Server {
	s := &Server{mux: http.NewServeMux(), warmReason: warmReason}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/objects", s.handleObjects)
	s.mux.HandleFunc("/objects/", s.handleObject)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/shard/query", s.handleShardQuery)
	s.mux.HandleFunc("/insert", s.handleInsert)
	s.mux.HandleFunc("/delete", s.handleDelete)
	return s
}

// Attach publishes the backend, flipping a warming server live. Safe to
// call from a boot goroutine while requests are already arriving;
// requests racing the attach see either the 503 or the backend, never a
// partial state.
func (s *Server) Attach(b Backend) { s.bv.Store(backendBox{b: b}) }

// SetFront wires the front-door middleware's stats into /healthz.
func (s *Server) SetFront(f FrontReporter) { s.front.Store(frontBox{f: f}) }

// backend returns the attached backend, or nil while warming.
func (s *Server) backend() Backend {
	if bb, ok := s.bv.Load().(backendBox); ok {
		return bb.b
	}
	return nil
}

// serving returns the backend, answering 503 (and returning nil) while
// no backend is attached. Handlers call it first.
func (s *Server) serving(w http.ResponseWriter) Backend {
	b := s.backend()
	if b == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{
			Error: "service warming: " + s.warmReason,
			Code:  "warming",
		})
		return nil
	}
	return b
}

// Panics reports how many handler panics have been recovered into 500
// responses over the server's lifetime.
func (s *Server) Panics() int64 { return s.panics.Load() }

// ServeHTTP implements http.Handler. Every request runs under a recovery
// envelope: a handler panic is counted and answered with a 500 JSON body
// instead of killing the connection (and, under some configurations, the
// process). http.ErrAbortHandler is re-raised — it is net/http's own
// "abort this response" signal, not a bug.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panics.Add(1)
		// If the handler already wrote a header this write is a no-op on
		// the status line, but the connection still terminates cleanly.
		writeError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", rec))
	}()
	s.mux.ServeHTTP(w, r)
}

// --- request/response types ---------------------------------------------------

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Instances [][]float64 `json:"instances"`
	Weights   []float64   `json:"weights,omitempty"`
	Operator  string      `json:"operator"`
	K         int         `json:"k,omitempty"`
	Metric    string      `json:"metric,omitempty"`
}

// QueryCandidate is one candidate in the response.
type QueryCandidate struct {
	ID         int     `json:"id"`
	Label      string  `json:"label,omitempty"`
	MinDist    float64 `json:"min_dist"`
	Dominators int     `json:"dominators"`
}

// QueryResponse is the POST /query response body. A degraded search (some
// index pages quarantined) answers 206 Partial Content with Incomplete set
// and the skipped-read counts filled in; candidates from the unreadable
// regions may be missing, every candidate present is genuine.
type QueryResponse struct {
	Operator   string           `json:"operator"`
	K          int              `json:"k"`
	Candidates []QueryCandidate `json:"candidates"`
	Examined   int              `json:"examined"`
	ElapsedUS  int64            `json:"elapsed_us"`
	Checks     int64            `json:"dominance_checks"`
	Incomplete bool             `json:"incomplete,omitempty"`
	// UnreadableNodes and UnreadableObjects count index subtrees and
	// object records the search had to skip (only set when Incomplete).
	UnreadableNodes   int `json:"unreadable_nodes,omitempty"`
	UnreadableObjects int `json:"unreadable_objects,omitempty"`
	// UnreachableShards counts cluster shards (all replicas down) whose
	// candidates are missing — only ever set by a router-backed server.
	UnreachableShards int `json:"unreachable_shards,omitempty"`
}

// ObjectJSON is the wire form of an object: the POST /insert body, GET
// /objects/{id} and each /shard/query candidate. Object and ToJSON convert.
type ObjectJSON struct {
	ID        int         `json:"id"`
	Label     string      `json:"label,omitempty"`
	Instances [][]float64 `json:"instances"`
	Probs     []float64   `json:"probs"`
}

type errorJSON struct {
	Error string `json:"error"`
	// Code is a stable machine-readable identifier derived from the HTTP
	// status (e.g. "not_implemented" for the disk backend's enumeration
	// endpoints), so clients can branch without parsing Error text.
	Code string `json:"code"`
}

// errorCode maps an HTTP status to the stable code carried in errorJSON.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return strings.ReplaceAll(strings.ToLower(http.StatusText(status)), " ", "_")
	}
}

// --- handlers -------------------------------------------------------------------

// handleHealth is the liveness report: always 200 while the process
// serves, with "status" flipping from "ok" to "degraded" once the backend
// has quarantined pages, recovered panics have occurred, or the boot is
// still warming — and "reason" spelling out why, so an operator reads
// the cause without diffing counters. Whatever the backend can report
// (fault counters, pool/cache stats, front-door serving stats) is
// included; a decorating backend is unwrapped for the probes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	b := s.backend()
	h := Health{Status: "ok", Time: time.Now().UTC().Format(time.RFC3339)}
	if b == nil {
		reasons = append(reasons, "warming: "+s.warmReason)
	} else {
		n, d := b.Len(), b.Dim()
		h.Objects, h.Dim = &n, &d
	}
	if h.Panics = s.panics.Load(); h.Panics > 0 {
		reasons = append(reasons, "recovered_panics")
	}
	if fr, ok := capability[FaultReporter](b); ok {
		st := fr.FaultStats()
		h.Faults, h.QuarantinedPages = &st, &st.QuarantinedPages
		if st.QuarantinedPages > 0 {
			reasons = append(reasons, "quarantined_pages")
		}
	}
	if rr, ok := capability[RouterReporter](b); ok {
		ch := rr.ClusterHealth()
		h.Cluster, h.UnreachableShards = &ch, ch.Degraded
		if ch.Degraded > 0 {
			reasons = append(reasons, "unreachable_shards")
		}
	}
	if ar, ok := capability[AccessReporter](b); ok {
		st := ar.AccessStats()
		h.IO = &IOHealth{
			PoolHits:   st.Hits,
			PoolMisses: st.Misses,
			PageReads:  st.Reads,
			PageWrites: st.Writes,
		}
	}
	if fb, ok := s.front.Load().(frontBox); ok {
		fs := fb.f.FrontStats()
		h.Front = &fs
	}
	if len(reasons) > 0 {
		h.Status = "degraded"
		h.Reason = strings.Join(reasons, ", ")
	}
	writeJSON(w, http.StatusOK, h)
}

// handleReady is the readiness probe: 200 when the backend can serve
// queries, 503 otherwise — including the whole warming window while a
// mutable boot replays its WAL. Backends that implement HealthChecker
// (the disk index re-reads and re-validates its super page) get the
// final say; backends that don't are ready by construction.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	b := s.backend()
	if b == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"ready":  false,
			"reason": "warming: " + s.warmReason,
		})
		return
	}
	if hc, ok := capability[HealthChecker](b); ok {
		if err := hc.Healthy(r.Context()); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
				"ready": false,
				"error": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ready": true})
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	b := s.serving(w)
	if b == nil {
		return
	}
	lister, ok := capability[ObjectLister](b)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("backend cannot enumerate objects"))
		return
	}
	type summary struct {
		Objects int `json:"objects"`
		Dim     int `json:"dim"`
		MinID   int `json:"min_id"`
		MaxID   int `json:"max_id"`
	}
	sum := summary{Objects: b.Len(), Dim: b.Dim()}
	for i, o := range lister.Objects() {
		if i == 0 || o.ID() < sum.MinID {
			sum.MinID = o.ID()
		}
		if i == 0 || o.ID() > sum.MaxID {
			sum.MaxID = o.ID()
		}
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	b := s.serving(w)
	if b == nil {
		return
	}
	lister, ok := capability[ObjectLister](b)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("backend cannot enumerate objects"))
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/objects/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad object id %q", idStr))
		return
	}
	o := lister.Object(id)
	if o == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("object %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, ToJSON(o))
}

// handleQuery reads the body whole, then answers a byte-identical repeat
// of a kept answer's body from the backend's Repeater before anything is
// decoded; any other body is decoded, validated (k <= Len included) and
// searched, through SearchBody so that its answer can be found by these
// bytes next time.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	body := getBuffer()
	defer putBuffer(body)
	if !readBody(w, r, body) {
		return
	}
	rep, _ := b.(Repeater)
	if rep != nil {
		if res, op, k := rep.Repeat(body.Bytes()); res != nil {
			writeQuery(w, http.StatusOK, op.String(), k, res, nil)
			return
		}
	}
	var req QueryRequest
	if !decodeJSON(w, body.Bytes(), &req) {
		return
	}
	q, err := buildQuery(b.Dim(), req.Operator, req.Metric, req.K, false, ObjectJSON{Instances: req.Instances, Probs: req.Weights})
	if err == nil && q.k > b.Len() {
		err = fmt.Errorf("k=%d out of range", q.k)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := core.SearchOptions{Filters: core.AllFilters, Metric: q.metric}
	var res *core.Result
	if rep != nil {
		res, err = rep.SearchBody(r.Context(), body.Bytes(), q.obj, q.op, q.k, opts)
	} else {
		res, err = b.SearchKCtx(r.Context(), q.obj, q.op, q.k, opts)
	}
	status, partial, ok := searchStatus(w, r, err)
	if !ok {
		return
	}
	writeQuery(w, status, q.op.String(), q.k, res, partial)
}

// --- helpers --------------------------------------------------------------------

func parseMetric(s string) (geom.Metric, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "euclidean", "l2":
		return geom.Euclidean, nil
	case "manhattan", "l1":
		return geom.Manhattan, nil
	case "chebyshev", "linf":
		return geom.Chebyshev, nil
	}
	return nil, fmt.Errorf("unknown metric %q", s)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error(), Code: errorCode(status)})
}
