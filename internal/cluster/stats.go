package cluster

// Observability: a snapshot for tests and /healthz, plus registration of
// the router's counters on the front door's /metrics registry.

import (
	"time"

	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

// Stats snapshots the counters.
func (rt *Router) Stats() server.RouterStats {
	return server.RouterStats{
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

// ClusterHealth implements server.RouterReporter: every replica's breaker,
// the counters, and how many shards have no replica admitting requests
// (every breaker open or probing).
func (rt *Router) ClusterHealth() server.ClusterHealth {
	h := server.ClusterHealth{Shards: make([]server.ShardHealth, 0, len(rt.shards)), Stats: rt.Stats()}
	for i, sh := range rt.shards {
		s := server.ShardHealth{Shard: i, Objects: sh.objects.Load(), P95US: sh.lat.p95().Microseconds()}
		usable := false
		for _, rep := range sh.replicas {
			st, probeAt := rep.br.snapshot()
			rh := server.ReplicaHealth{URL: rep.url, Breaker: st.String()}
			if st == stateOpen {
				rh.ProbeAt = probeAt.UTC().Format(time.RFC3339)
			}
			usable = usable || st == stateClosed
			s.Replicas = append(s.Replicas, rh)
		}
		if !usable {
			h.Degraded++
		}
		h.Shards = append(h.Shards, s)
	}
	return h
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
	reg.CounterFunc("sd_router_shard_requests_total", "Shard requests issued (including retries and hedges).",
		func() float64 { return float64(rt.requests.Load()) })
	reg.CounterFunc("sd_router_retries_total", "Shard attempts beyond the first.",
		func() float64 { return float64(rt.retries.Load()) })
	reg.CounterFunc("sd_router_hedges_total", "Hedged duplicate requests issued.",
		func() float64 { return float64(rt.hedges.Load()) })
	reg.CounterFunc("sd_router_hedge_wins_total", "Hedged requests that answered first.",
		func() float64 { return float64(rt.hedgeWins.Load()) })
	reg.CounterFunc("sd_router_failovers_total", "Shard answers served by a non-primary replica.",
		func() float64 { return float64(rt.failovers.Load()) })
	reg.CounterFunc("sd_router_breaker_opens_total", "Replica circuit breakers tripped open.",
		func() float64 { return float64(rt.breakerOpens.Load()) })
	reg.CounterFunc("sd_router_probe_successes_total", "Half-open health probes that revived a replica.",
		func() float64 { return float64(rt.probeOK.Load()) })
	reg.CounterFunc("sd_router_probe_failures_total", "Half-open health probes that failed.",
		func() float64 { return float64(rt.probeFail.Load()) })
	reg.CounterFunc("sd_router_unreachable_shard_queries_total", "Shard queries no replica could answer.",
		func() float64 { return float64(rt.unreachable.Load()) })
	reg.CounterFunc("sd_router_partial_answers_total", "Searches degraded to a 206 partial answer.",
		func() float64 { return float64(rt.partials.Load()) })
	reg.GaugeFunc("sd_router_shards", "Configured shards.",
		func() float64 { return float64(len(rt.shards)) })
	reg.GaugeFunc("sd_router_degraded_shards", "Shards with every replica breaker open.",
		func() float64 { return float64(rt.ClusterHealth().Degraded) })
}
