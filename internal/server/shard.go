package server

// The shard face of the scatter-gather cluster: POST /shard/query is what
// the router (internal/cluster) calls instead of /query. It differs from
// the public endpoint in exactly the ways the cross-shard merge needs:
//
//   - k may exceed the shard's object count. A shard holds an arbitrary
//     slice of the global dataset, and a shard with n <= k objects answers
//     with all of them (every object has at most n-1 < k local
//     dominators) — the public endpoint's k > Len() 400 would wrongly
//     reject the fleet's small shards.
//   - Candidates carry their full instance data (points + probabilities),
//     not just id/min_dist: the router re-runs the dominance checker over
//     the union of shard k-skybands, so it must reconstruct each object
//     bit-for-bit.
//   - The query's probabilities arrive already normalized ("normalized":
//     true) and are decoded with uncertain.FromNormalized: the router
//     normalized the client's weights exactly once, and a second w/Σw pass
//     here would perturb the low bits and with them dominance decisions,
//     breaking the sharded == single-node byte-equality invariant.
//
// Degradation composes: a shard whose own backend skipped quarantined
// pages answers 206 with the skip counts, and the router folds those into
// the cluster-level PartialResultError alongside its unreachable-shard
// counts.
//
// The router's own health travels the other way: ClusterHealth is the
// "cluster" block of a router-backed server's /healthz.

import (
	"net/http"

	"spatialdom/internal/core"
)

// ShardQueryRequest is the POST /shard/query body. Probs must be the
// already-normalized probabilities when Normalized is set; otherwise they
// are treated as weights and normalized here (useful for debugging a
// shard directly). A shard searches with core.AllFilters, as /query does:
// no filter changes a candidate, so there is no filter field to send.
type ShardQueryRequest struct {
	Instances  [][]float64 `json:"instances"`
	Probs      []float64   `json:"probs,omitempty"`
	Normalized bool        `json:"normalized,omitempty"`
	Operator   string      `json:"operator"`
	K          int         `json:"k,omitempty"`
	Metric     string      `json:"metric,omitempty"`
}

// ShardQueryResponse is the POST /shard/query response. Each candidate is
// a k-skyband member with full instance data, enough for the router to
// rebuild the object exactly (JSON float64 encoding round-trips bit for
// bit). Incomplete plus the skip counts flag a shard that itself degraded
// (quarantined pages); the router folds them into the cluster answer.
type ShardQueryResponse struct {
	Candidates        []ObjectJSON `json:"candidates"`
	Objects           int          `json:"objects"`
	Examined          int          `json:"examined"`
	Checks            int64        `json:"dominance_checks"`
	Incomplete        bool         `json:"incomplete,omitempty"`
	UnreadableNodes   int          `json:"unreadable_nodes,omitempty"`
	UnreadableObjects int          `json:"unreadable_objects,omitempty"`
}

// ClusterHealth is a router's /healthz "cluster" block: each shard's
// replicas and their breakers, plus the router's counters.
type ClusterHealth struct {
	Shards []ShardHealth `json:"shards"`
	Stats  RouterStats   `json:"stats"`
	// Degraded counts shards with no replica admitting requests (every
	// breaker open or probing); /healthz reports it as unreachable_shards.
	Degraded int `json:"-"`
}

// ShardHealth is one shard's entry in ClusterHealth.
type ShardHealth struct {
	Shard    int             `json:"shard"`
	Objects  int64           `json:"objects"`
	P95US    int64           `json:"p95_us"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's entry in ShardHealth.
type ReplicaHealth struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"` // closed | open | half-open
	// ProbeAt is when the next half-open probe becomes due (RFC3339),
	// present only while the breaker is open.
	ProbeAt string `json:"probe_at,omitempty"`
}

// RouterStats is a point-in-time snapshot of a router's counters.
type RouterStats struct {
	Requests     int64 `json:"requests"`
	Retries      int64 `json:"retries"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	Failovers    int64 `json:"failovers"`
	BreakerOpens int64 `json:"breaker_opens"`
	ProbeOK      int64 `json:"probe_successes"`
	ProbeFail    int64 `json:"probe_failures"`
	Unreachable  int64 `json:"unreachable_shard_queries"`
	Partials     int64 `json:"partial_answers"`
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	b := s.serving(w)
	if b == nil {
		return
	}
	var req ShardQueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := buildQuery(b.Dim(), req.Operator, req.Metric, req.K, req.Normalized, ObjectJSON{Instances: req.Instances, Probs: req.Probs})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := b.SearchKCtx(r.Context(), q.obj, q.op, q.k, core.SearchOptions{Filters: core.AllFilters, Metric: q.metric})
	status, partial, ok := searchStatus(w, r, err)
	if !ok {
		return
	}
	resp := ShardQueryResponse{
		Candidates: make([]ObjectJSON, len(res.Candidates)),
		Objects:    b.Len(),
		Examined:   res.Examined,
		Checks:     res.Stats.DominanceChecks,
		Incomplete: res.Incomplete,
	}
	if partial != nil {
		resp.UnreadableNodes = partial.UnreadableNodes
		resp.UnreadableObjects = partial.UnreadableObjects
	}
	for i, c := range res.Candidates {
		resp.Candidates[i] = ToJSON(c.Object)
	}
	writeJSON(w, status, resp)
}
