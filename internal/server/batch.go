package server

// POST /query/batch: many queries, one request, answered through
// core.SearchParallel — the same worker loop the library ships. All batch
// requests on a server share one core.Admission sized below GOMAXPROCS, so
// a huge batch executes at bounded parallelism and interleaves with other
// batches (and leaves headroom for single /query traffic) at query
// granularity instead of monopolizing the worker pool for its whole
// duration.
//
// The request body:
//
//	{
//	  "queries":  [{"instances": [[x,...],...], "weights": [...]}, ...],
//	  "operator": "PSD",
//	  "k":        1,            // optional
//	  "metric":   "euclidean",  // optional
//	  "workers":  0             // optional fan-out hint, capped by admission
//	}
//
// and the response carries one QueryResponse per query, in request order.
// A degraded slot (quarantined pages skipped) is flagged incomplete in
// place and counted in incomplete_slots; any degraded slot makes the
// whole response 206 Partial Content, mirroring /query.

import (
	"errors"
	"fmt"
	"net/http"

	"spatialdom/internal/core"
)

// defaultMaxBatch bounds the per-request query count; oversized batches
// are rejected outright (400) rather than admitted slowly — the client
// can split, and the bound keeps one request from holding admission
// tokens for minutes.
const defaultMaxBatch = 256

// BatchQuery is one query object inside a BatchRequest.
type BatchQuery struct {
	Instances [][]float64 `json:"instances"`
	Weights   []float64   `json:"weights,omitempty"`
}

// BatchRequest is the POST /query/batch body. Operator, K and Metric are
// shared by every query in the batch.
type BatchRequest struct {
	Queries  []BatchQuery `json:"queries"`
	Operator string       `json:"operator"`
	K        int          `json:"k,omitempty"`
	Metric   string       `json:"metric,omitempty"`
	// Workers is an optional fan-out hint; it is clamped to the server's
	// admission capacity, so a client cannot demand more parallelism than
	// the operator provisioned.
	Workers int `json:"workers,omitempty"`
}

// BatchResponse is the POST /query/batch response body.
type BatchResponse struct {
	Operator string          `json:"operator"`
	K        int             `json:"k"`
	Results  []QueryResponse `json:"results"`
	// IncompleteSlots counts degraded results; when > 0 the response
	// status is 206 and each degraded slot is flagged in place.
	IncompleteSlots int `json:"incomplete_slots,omitempty"`
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Queries) > s.maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds limit %d; split the request", len(req.Queries), s.maxBatch))
		return
	}
	q, err := buildQuery(b.Dim(), req.Operator, req.Metric, req.K, false, req.Queries...)
	if err == nil && q.k > b.Len() {
		err = fmt.Errorf("k=%d out of range", q.k)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	workers := req.Workers
	if workers <= 0 || workers > s.adm.Limit() {
		workers = s.adm.Limit()
	}
	// Degraded slots never surface as a batch error (the engine stores the
	// flagged result and keeps going), so any error here is hard.
	results, err := core.SearchParallel(r.Context(), b, q.objs, q.op, q.k,
		core.SearchOptions{Filters: core.AllFilters, Metric: q.metric},
		core.BatchOptions{Workers: workers, Admission: s.adm})
	status, _, ok := searchStatus(w, r, err)
	if !ok {
		return
	}
	incomplete := 0
	for _, res := range results {
		if res.Incomplete {
			incomplete++
		}
	}
	if incomplete > 0 {
		status = http.StatusPartialContent
	}
	writeBatch(w, status, q.op.String(), q.k, results, incomplete)
}
