package cluster

// Router is the scatter-gather front of the cluster: it implements
// server.Backend, so the existing HTTP server (and the front door's
// coalescer/cache) serve it exactly like a local index. A search fans out
// to every shard concurrently; each shard call runs inside the fault
// envelope, escalating through four stages:
//
//	retry    — up to three more attempts for transient failures (network
//	           errors, timeouts, 5xx, shed 429s), after a jittered backoff
//	           that starts at the hedge delay and doubles up to half the
//	           attempt deadline (faults.Retry);
//	hedge    — after the shard's p95 latency, a duplicate request to a
//	           second healthy replica; first answer wins, the loser is
//	           canceled through the shared attempt context;
//	failover — each retry rotates to the next replica whose breaker is
//	           closed, so a dead primary costs one timeout, not the query;
//	degrade  — a shard with no usable replica left is *counted*: the
//	           remaining shards' candidates are merged and the answer
//	           travels as core.PartialResultError (HTTP 206 with
//	           unreachable_shards), never as a silently short 200.
//
// Per-replica circuit breakers (consecutive-failure trip, half-open
// /healthz probes after a cooldown) keep dead replicas from eating a
// timeout per query and readmit recovered ones without a restart.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/faults"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// Config is what a deployment sets on a Router. Zero values select the
// documented defaults.
type Config struct {
	// Shards lists each shard's replica base URLs; Shards[i] are
	// interchangeable replicas serving the same partition i.
	Shards [][]string
	// ShardTimeout bounds one attempt (including its hedge) against one
	// shard; the effective deadline is the smaller of this and the
	// request context's. Default 2s.
	ShardTimeout time.Duration
	// BreakerCooldown is how long a tripped breaker waits before a
	// half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests inject in-process
	// transports); nil builds one with sane pooling.
	Client *http.Client
}

// The rest of the envelope is fixed.
const (
	// maxRetries is how many attempts past the first one shard call makes.
	maxRetries = 3
	// probeTimeout bounds a half-open /healthz probe.
	probeTimeout = time.Second
	// hedgeFloor is the minimum hedge delay: below it, hedging duplicates
	// every request for no tail to cut.
	hedgeFloor = 2 * time.Millisecond
	// coldHedge is the hedge delay before the shard has latency samples.
	coldHedge = 25 * time.Millisecond
)

// ParseShards parses the -shards grammar nncserver and nncclient share
// into Config.Shards: ';' separates shards, ',' separates replicas of one
// shard, and a replica without a scheme is http.
func ParseShards(spec string) ([][]string, error) {
	var out [][]string
	for si, group := range strings.Split(spec, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			replicas = append(replicas, u)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-shards: shard %d has no replica URLs (';' separates shards, ',' separates replicas)", si)
		}
		out = append(out, replicas)
	}
	return out, nil
}

// shard is one partition: its interchangeable replicas plus the latency
// window the hedge delay derives from.
type shard struct {
	replicas []*replica
	lat      latWindow
	objects  atomic.Int64 // from the last successful discovery/response
}

// Router fans queries out to shards and merges their k-skybands. Build
// with New, then Refresh (or let the first search fail fast on an
// undiscovered fleet). Implements server.Backend and
// server.RouterReporter; it deliberately does NOT implement
// server.Mutator — cluster mutation routing is future work, and the
// server answers 501 for /insert and /delete on a router backend.
type Router struct {
	shards       []*shard
	shardTimeout time.Duration
	salt         atomic.Uint64 // per-call retry-jitter salt sequence

	totalLen atomic.Int64
	dim      atomic.Int64

	// Counters surfaced by Stats/ClusterHealth and /metrics.
	requests     atomic.Int64 // shard attempts issued
	retries      atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	breakerOpens atomic.Int64
	probeOK      atomic.Int64
	probeFail    atomic.Int64
	unreachable  atomic.Int64 // shard-queries answered by zero replicas
	partials     atomic.Int64 // searches degraded to a partial answer
}

// New validates cfg and builds the router. No I/O happens here; call
// Refresh to discover shard sizes before serving.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	rt := &Router{shardTimeout: cfg.ShardTimeout}
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		sh := &shard{}
		for _, u := range urls {
			sh.replicas = append(sh.replicas, newReplica(u, hc, cfg.BreakerCooldown))
		}
		rt.shards = append(rt.shards, sh)
	}
	return rt, nil
}

// Refresh discovers every shard's object count and dimensionality from
// any reachable replica's /healthz; the router's Len/Dim are the sum and
// the (verified-equal) dim. Call at boot and whenever the fleet is
// resized.
func (rt *Router) Refresh(ctx context.Context) error {
	total, dim := 0, 0
	for i, sh := range rt.shards {
		var lastErr error
		found := false
		for _, rep := range sh.replicas {
			objs, d, err := rep.Discover(ctx)
			if err != nil {
				lastErr = err
				continue
			}
			if dim == 0 {
				dim = d
			} else if d != dim {
				return fmt.Errorf("cluster: shard %d reports dim %d, fleet dim %d", i, d, dim)
			}
			sh.objects.Store(int64(objs))
			total += objs
			found = true
			break
		}
		if !found {
			return fmt.Errorf("cluster: shard %d: no replica reachable: %w", i, lastErr)
		}
	}
	rt.totalLen.Store(int64(total))
	rt.dim.Store(int64(dim))
	return nil
}

// Len reports the fleet-wide object count from the last Refresh.
func (rt *Router) Len() int { return int(rt.totalLen.Load()) }

// Dim reports the dataset dimensionality from the last Refresh.
func (rt *Router) Dim() int { return int(rt.dim.Load()) }

// SearchKCtx fans the query out to every shard, gathers per-shard
// k-skybands through the fault envelope, and merges them into the global
// answer (see core.MergeShardBands for the invariant). Unreachable shards
// degrade the result to a *core.PartialResultError whose RetryAfterHint
// is the earliest breaker probe time — a client that waits that long gets
// the complete answer on the next ask.
func (rt *Router) SearchKCtx(ctx context.Context, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := rt.encodeQuery(q, op, k, opts)
	if err != nil {
		return nil, err
	}

	n := len(rt.shards)
	responses := make([]*server.ShardQueryResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = rt.callShard(ctx, i, body)
		}(i)
	}
	wg.Wait()

	var partial *core.PartialResultError
	bands := make([][]*uncertain.Object, 0, n)
	examined := 0
	var checks int64
	for i := 0; i < n; i++ {
		if err := errs[i]; err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if isSticky(err) || !faults.IsUnavailable(err) {
				return nil, err
			}
			if partial == nil {
				partial = &core.PartialResultError{}
			}
			partial.AddShard(err)
			rt.unreachable.Add(1)
			continue
		}
		resp := responses[i]
		rt.shards[i].objects.Store(int64(resp.Objects))
		examined += resp.Examined
		checks += resp.Checks
		if resp.Incomplete {
			// The shard itself degraded (quarantined pages); fold its skip
			// counts into the cluster answer.
			if partial == nil {
				partial = &core.PartialResultError{}
			}
			partial.UnreadableNodes += resp.UnreadableNodes
			partial.UnreadableObjects += resp.UnreadableObjects
		}
		objs, err := decodeBand(resp.Candidates, q.Dim())
		if err != nil {
			return nil, err
		}
		bands = append(bands, objs)
	}

	res, err := core.MergeShardBands(ctx, q, op, k, opts, bands)
	if err != nil {
		return res, err
	}
	// Examined reports fleet-wide work (shard traversals), the merge's
	// dominance checks ride on top of the shards'.
	res.Examined = examined
	res.Stats.DominanceChecks += checks
	if partial != nil {
		rt.partials.Add(1)
		partial.RetryAfterHint = rt.retryHint()
		partial.Result = res
		res.Incomplete = true
		return res, partial
	}
	return res, nil
}

// encodeQuery marshals the shard request once for all shards. The query's
// probabilities are forwarded post-normalization ("normalized": true) so
// every shard — and the merge — computes with exactly the float64 bits a
// single node would.
func (rt *Router) encodeQuery(q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) ([]byte, error) {
	metric := ""
	if opts.Metric != nil {
		metric = opts.Metric.Name()
	}
	w := server.ToJSON(q)
	return json.Marshal(server.ShardQueryRequest{
		Instances:  w.Instances,
		Probs:      w.Probs,
		Normalized: true,
		Operator:   op.String(),
		K:          k,
		Metric:     metric,
	})
}

// decodeBand rebuilds a shard's k-skyband objects bit for bit through the
// server's one wire decoder, with the probabilities taken as they stand. A
// candidate the decoder refuses — of any dimensionality but the query's,
// which the merge would index past — makes the reply sticky. Replies are
// not held to the request bound: a shard answers with whatever objects its
// dataset holds.
func decodeBand(cands []server.ObjectJSON, dim int) ([]*uncertain.Object, error) {
	objs := make([]*uncertain.Object, len(cands))
	for i, c := range cands {
		o, err := c.Object(dim, true)
		if err != nil {
			return nil, &stickyError{fmt.Errorf("cluster: shard candidate %d: %w", c.ID, err)}
		}
		objs[i] = o
	}
	return objs, nil
}

// callShard drives the fault envelope for one shard: pick a healthy
// replica (rotating on each attempt → failover), run one hedged attempt,
// back off with deterministic jitter between attempts — from the hedge
// delay, doubling, up to half the attempt deadline — and classify the
// outcome. The returned error matches faults.ErrUnavailable when the
// shard is down (degrade) and is sticky when retrying cannot help (abort
// the query).
func (rt *Router) callShard(ctx context.Context, si int, body []byte) (*server.ShardQueryResponse, error) {
	sh := rt.shards[si]
	salt := rt.salt.Add(1)
	var lastErr error
	var first *replica
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			rt.retries.Add(1)
			backoff := faults.Retry{Base: sh.hedgeDelay(), Cap: rt.shardTimeout / 2}
			if err := faults.Sleep(ctx, backoff.Backoff(attempt-1, salt)); err != nil {
				return nil, err
			}
		}
		rep := rt.pick(ctx, sh, attempt)
		if rep == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("shard %d: %w: all breakers open", si, faults.ErrUnavailable)
			}
			continue
		}
		if first == nil {
			first = sh.replicas[0]
		}
		resp, winner, err := rt.attempt(ctx, sh, rep, body)
		if err == nil {
			if winner != first {
				rt.failovers.Add(1)
			}
			return resp, nil
		}
		if isSticky(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("shard %d: %w: retries exhausted: %w", si, faults.ErrUnavailable, lastErr)
}

// pick returns a replica to try: the first one (rotated by attempt) whose
// breaker is closed, else one revived by a successful half-open /healthz
// probe. nil means the shard currently has no usable replica.
func (rt *Router) pick(ctx context.Context, sh *shard, attempt int) *replica {
	n := len(sh.replicas)
	for i := 0; i < n; i++ {
		rep := sh.replicas[(attempt+i)%n]
		if rep.br.allow() {
			return rep
		}
	}
	for _, rep := range sh.replicas {
		if !rep.br.tryProbe(time.Now()) {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := rep.ProbeHealth(pctx)
		cancel()
		rep.br.probeResult(err == nil, time.Now())
		if err == nil {
			rt.probeOK.Add(1)
			return rep
		}
		rt.probeFail.Add(1)
	}
	return nil
}

// attempt runs one deadline-bounded request against primary, hedging to a
// second healthy replica once the hedge delay elapses. The first answer
// wins; canceling the attempt context reaps the loser. Returns the
// serving replica alongside the response. Each replica that fails is
// blamed once: when its error arrives, or when the deadline fires while
// it is still in flight.
func (rt *Router) attempt(ctx context.Context, sh *shard, primary *replica, body []byte) (*server.ShardQueryResponse, *replica, error) {
	actx, cancel := context.WithTimeout(ctx, rt.shardTimeout)
	defer cancel()

	type answer struct {
		resp *server.ShardQueryResponse
		err  error
		rep  *replica
	}
	ch := make(chan answer, 2)
	launch := func(rep *replica) {
		rt.requests.Add(1)
		go func() {
			resp, err := rep.ShardQuery(actx, body)
			select {
			case ch <- answer{resp, err, rep}:
			case <-actx.Done():
			}
		}()
	}

	start := time.Now()
	launch(primary)
	inflight := []*replica{primary}

	var hedgeC <-chan time.Time
	if rt.hedgeCandidate(sh, primary) != nil {
		t := time.NewTimer(sh.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case a := <-ch:
			inflight = slices.DeleteFunc(inflight, func(r *replica) bool { return r == a.rep })
			if a.err == nil {
				a.rep.br.success()
				sh.lat.observe(time.Since(start))
				if a.rep != primary {
					rt.hedgeWins.Add(1)
				}
				return a.resp, a.rep, nil
			}
			if !isSticky(a.err) {
				rt.blame(a.rep)
			}
			if len(inflight) == 0 {
				return nil, nil, a.err
			}
		case <-hedgeC:
			hedgeC = nil
			if rep := rt.hedgeCandidate(sh, primary); rep != nil {
				rt.hedges.Add(1)
				launch(rep)
				inflight = append(inflight, rep)
			}
		case <-actx.Done():
			// The attempt deadline fired (or the caller gave up). Blame the
			// replicas still in flight: each had the window and did not answer.
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			for _, rep := range inflight {
				rt.blame(rep)
			}
			return nil, nil, fmt.Errorf("shard attempt: %w: %w", faults.ErrUnavailable, actx.Err())
		}
	}
}

// blame records a failed request against rep's breaker.
func (rt *Router) blame(rep *replica) {
	if rep.br.failure(time.Now()) {
		rt.breakerOpens.Add(1)
	}
}

// hedgeDelay returns the delay before a duplicate request: the shard's
// observed p95, at least hedgeFloor, or coldHedge before it has samples.
// The retry backoff starts from the same value.
func (sh *shard) hedgeDelay() time.Duration {
	p95 := sh.lat.p95()
	if p95 <= 0 {
		return coldHedge
	}
	return max(p95, hedgeFloor)
}

// hedgeCandidate returns a healthy replica other than primary, or nil.
func (rt *Router) hedgeCandidate(sh *shard, primary *replica) *replica {
	for _, rep := range sh.replicas {
		if rep != primary && rep.br.allow() {
			return rep
		}
	}
	return nil
}

// retryHint is the earliest time any open breaker becomes probeable —
// the soonest the missing capacity can return, surfaced as Retry-After
// on the 206.
func (rt *Router) retryHint() time.Duration {
	now := time.Now()
	var min time.Duration
	for _, sh := range rt.shards {
		for _, rep := range sh.replicas {
			st, probeAt := rep.br.snapshot()
			if st != stateOpen {
				continue
			}
			d := probeAt.Sub(now)
			if d < time.Second {
				d = time.Second
			}
			if min == 0 || d < min {
				min = d
			}
		}
	}
	if min == 0 {
		min = time.Second
	}
	return min
}

// --- latency window -----------------------------------------------------------

// latWindow is a fixed ring of recent shard latencies; p95 over it drives
// the adaptive hedge delay.
type latWindow struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // filled slots
	idx int // next write
}

func (l *latWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p95 returns the 95th-percentile latency of the window, or 0 with fewer
// than 8 samples (too little signal to beat the cold default).
func (l *latWindow) p95() time.Duration {
	l.mu.Lock()
	n := l.n
	var tmp [64]time.Duration
	copy(tmp[:], l.buf[:n])
	l.mu.Unlock()
	if n < 8 {
		return 0
	}
	s := tmp[:n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(n*95)/100]
}
