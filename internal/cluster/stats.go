package cluster

// Observability: a snapshot for tests and /healthz, plus registration of
// the router's counters on the front door's /metrics registry.

import (
	"time"

	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
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

// Stats snapshots the counters.
func (rt *Router) Stats() Stats {
	return Stats{
		Requests:     rt.requests.Load(),
		Retries:      rt.retries.Load(),
		Hedges:       rt.hedges.Load(),
		HedgeWins:    rt.hedgeWins.Load(),
		Failovers:    rt.failovers.Load(),
		BreakerOpens: rt.breakerOpens.Load(),
		ProbeOK:      rt.probeOK.Load(),
		ProbeFail:    rt.probeFail.Load(),
		Unreachable:  rt.unreachable.Load(),
		Partials:     rt.partials.Load(),
	}
}

// ReplicaHealth is one replica's view in RouterHealth.
type ReplicaHealth struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
	// ProbeAt is when the next half-open probe becomes due (RFC3339),
	// present only while the breaker is open.
	ProbeAt string `json:"probe_at,omitempty"`
}

// ShardHealth is one shard's view in RouterHealth.
type ShardHealth struct {
	Shard    int             `json:"shard"`
	Objects  int64           `json:"objects"`
	P95US    int64           `json:"p95_us"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// Health is the router's GET /healthz "cluster" block: the per-shard
// breaker map plus the counter snapshot.
type Health struct {
	Shards []ShardHealth `json:"shards"`
	Stats  Stats         `json:"stats"`
}

// RouterHealth implements server.RouterReporter with a Health.
func (rt *Router) RouterHealth() any {
	shards := make([]ShardHealth, 0, len(rt.shards))
	for i, sh := range rt.shards {
		h := ShardHealth{Shard: i, Objects: sh.objects.Load(), P95US: sh.lat.p95().Microseconds()}
		for _, rep := range sh.replicas {
			st, probeAt := rep.br.snapshot()
			rh := ReplicaHealth{URL: rep.url, Breaker: st.String()}
			if st == stateOpen {
				rh.ProbeAt = probeAt.UTC().Format(time.RFC3339)
			}
			h.Replicas = append(h.Replicas, rh)
		}
		shards = append(shards, h)
	}
	return Health{Shards: shards, Stats: rt.Stats()}
}

// DegradedShards implements server.RouterReporter: shards with no replica
// currently admitting requests (every breaker open or probing).
func (rt *Router) DegradedShards() int {
	n := 0
	for _, sh := range rt.shards {
		usable := false
		for _, rep := range sh.replicas {
			if rep.br.allow() {
				usable = true
				break
			}
		}
		if !usable {
			n++
		}
	}
	return n
}

// Interface conformance: the server serves a Router like any backend and
// unwraps to it for the /healthz cluster section.
var (
	_ server.Backend        = (*Router)(nil)
	_ server.RouterReporter = (*Router)(nil)
)

// RegisterMetrics exports the router's counters on the front door's
// /metrics registry (Prometheus text format).
func (rt *Router) RegisterMetrics(reg *front.Registry) {
	reg.CounterFunc("sd_router_shard_requests_total", "Shard requests issued (including retries and hedges).", nil,
		func() float64 { return float64(rt.requests.Load()) })
	reg.CounterFunc("sd_router_retries_total", "Shard attempts beyond the first.", nil,
		func() float64 { return float64(rt.retries.Load()) })
	reg.CounterFunc("sd_router_hedges_total", "Hedged duplicate requests issued.", nil,
		func() float64 { return float64(rt.hedges.Load()) })
	reg.CounterFunc("sd_router_hedge_wins_total", "Hedged requests that answered first.", nil,
		func() float64 { return float64(rt.hedgeWins.Load()) })
	reg.CounterFunc("sd_router_failovers_total", "Shard answers served by a non-primary replica.", nil,
		func() float64 { return float64(rt.failovers.Load()) })
	reg.CounterFunc("sd_router_breaker_opens_total", "Replica circuit breakers tripped open.", nil,
		func() float64 { return float64(rt.breakerOpens.Load()) })
	reg.CounterFunc("sd_router_probe_successes_total", "Half-open health probes that revived a replica.", nil,
		func() float64 { return float64(rt.probeOK.Load()) })
	reg.CounterFunc("sd_router_probe_failures_total", "Half-open health probes that failed.", nil,
		func() float64 { return float64(rt.probeFail.Load()) })
	reg.CounterFunc("sd_router_unreachable_shard_queries_total", "Shard queries no replica could answer.", nil,
		func() float64 { return float64(rt.unreachable.Load()) })
	reg.CounterFunc("sd_router_partial_answers_total", "Searches degraded to a 206 partial answer.", nil,
		func() float64 { return float64(rt.partials.Load()) })
	reg.GaugeFunc("sd_router_shards", "Configured shards.", nil,
		func() float64 { return float64(len(rt.shards)) })
	reg.GaugeFunc("sd_router_degraded_shards", "Shards with every replica breaker open.", nil,
		func() float64 { return float64(rt.DegradedShards()) })
}
