package clusterfault

// The chaos suite's invariant: never a panic, never silently wrong. Every
// answer the router serves is either byte-equal (candidates array, wire
// bytes) to the single-node oracle's, or flagged Incomplete with accurate
// UnreachableShards — and a degraded cluster heals without restart: the
// breaker's half-open probe readmits restored replicas.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"spatialdom/internal/cluster"
	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// fastRouter is the production envelope with a short breaker cooldown, so
// recovery is testable in-process.
func fastRouter() cluster.Config {
	return cluster.Config{BreakerCooldown: 150 * time.Millisecond}
}

func testWorkload(t *testing.T, n int, seed int64) (*datagen.Dataset, []*uncertain.Object) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, Dim: 2, M: 5, EdgeLen: 500, Centers: datagen.AntiCorrelated, Seed: seed})
	queries := ds.Queries(6, 4, 200, seed+1)
	return ds, queries
}

// mustByteEqual asserts the routed candidates equal the oracle's on the
// wire, byte for byte.
func mustByteEqual(t *testing.T, label string, oracle, routed *RawResponse) {
	t.Helper()
	if !bytes.Equal(oracle.Candidates, routed.Candidates) {
		t.Fatalf("%s: sharded answer diverges from single node\n single: %s\n routed: %s",
			label, oracle.Candidates, routed.Candidates)
	}
}

func TestClusterConformanceClean(t *testing.T) {
	ds, queries := testWorkload(t, 160, 42)
	c, err := Start(ds.Objects, Options{ShardCount: 4, Replicas: 2, Seed: 7, Router: fastRouter()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, operator := range []string{"SSD", "SSSD", "PSD", "FSD", "F+SD"} {
		for _, k := range []int{1, 2} {
			for qi, q := range queries {
				body := QueryBody(q, operator, k)
				oracle, err := PostQuery(c.Single.URL, body)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				routed, err := PostQuery(c.Front.URL, body)
				if err != nil {
					t.Fatalf("routed: %v", err)
				}
				if routed.Status != http.StatusOK {
					t.Fatalf("clean cluster answered %d", routed.Status)
				}
				mustByteEqual(t, fmt.Sprintf("%s k=%d q%d", operator, k, qi), oracle, routed)
			}
		}
	}
}

func TestChaosNeverSilentlyWrong(t *testing.T) {
	ds, queries := testWorkload(t, 140, 1234)
	c, err := Start(ds.Objects, Options{
		ShardCount: 3,
		Replicas:   2,
		Seed:       99,
		Inject: InjectorConfig{
			Drop:      60, // ppm/1024 ≈ 6%
			Err500:    60,
			Half:      40,
			Delay:     80,
			DelayFor:  3 * time.Millisecond,
			FlapEvery: 40,
			FlapDown:  4,
		},
		Router: fastRouter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Collect oracles before the storm; the dataset never changes.
	type cse struct {
		label  string
		body   []byte
		oracle *RawResponse
	}
	var cases []cse
	for _, operator := range []string{"PSD", "SSD", "F+SD"} {
		for qi, q := range queries {
			body := QueryBody(q, operator, 2)
			oracle, err := PostQuery(c.Single.URL, body)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, cse{fmt.Sprintf("%s q%d", operator, qi), body, oracle})
		}
	}

	c.StartChaos()
	defer c.StopChaos()

	var flagged, clean int
	const rounds = 6
	for round := 0; round < rounds; round++ {
		for _, tc := range cases {
			routed, err := PostQuery(c.Front.URL, tc.body)
			if err != nil {
				t.Fatalf("%s round %d: router surfaced a hard failure: %v", tc.label, round, err)
			}
			switch routed.Status {
			case http.StatusOK:
				if routed.Incomplete || routed.UnreachableShards != 0 {
					t.Fatalf("%s: 200 with degradation flags set", tc.label)
				}
				mustByteEqual(t, tc.label, tc.oracle, routed)
				clean++
			case http.StatusPartialContent:
				if !routed.Incomplete {
					t.Fatalf("%s: 206 without incomplete flag", tc.label)
				}
				if routed.UnreachableShards < 1 || routed.UnreachableShards > 3 {
					t.Fatalf("%s: implausible unreachable_shards=%d", tc.label, routed.UnreachableShards)
				}
				flagged++
			default:
				t.Fatalf("%s: unexpected status %d", tc.label, routed.Status)
			}
		}
		// Give tripped breakers a chance to half-open between rounds, so
		// the storm also exercises probe-driven recovery paths.
		time.Sleep(60 * time.Millisecond)
	}

	var injected uint64
	for _, shard := range c.Injectors {
		for _, inj := range shard {
			injected += inj.Drops.Load() + inj.Errs.Load() + inj.Halves.Load() + inj.Delays.Load()
		}
	}
	if injected == 0 {
		t.Fatal("chaos run injected zero faults; the suite tested nothing")
	}
	t.Logf("chaos: %d clean (byte-equal), %d flagged partial, %d faults injected; router stats %+v",
		clean, flagged, injected, c.Router.Stats())
}

// TestChaosConcurrent drives the storm from many goroutines under -race:
// the invariant must hold with the router's breakers, hedges and latency
// windows all racing.
func TestChaosConcurrent(t *testing.T) {
	ds, queries := testWorkload(t, 120, 555)
	c, err := Start(ds.Objects, Options{
		ShardCount: 3,
		Replicas:   2,
		Seed:       321,
		Inject:     InjectorConfig{Drop: 50, Err500: 50, Half: 30, Delay: 60, DelayFor: 2 * time.Millisecond},
		Router:     fastRouter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := QueryBody(queries[0], "PSD", 2)
	oracle, err := PostQuery(c.Single.URL, body)
	if err != nil {
		t.Fatal(err)
	}

	c.StartChaos()
	defer c.StopChaos()

	const workers, perWorker = 8, 12
	errCh := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				routed, err := PostQuery(c.Front.URL, body)
				if err != nil {
					errCh <- err
					return
				}
				if routed.Status == http.StatusOK && !bytes.Equal(oracle.Candidates, routed.Candidates) {
					errCh <- fmt.Errorf("unflagged divergence: %s vs %s", oracle.Candidates, routed.Candidates)
					return
				}
				if routed.Status == http.StatusPartialContent && routed.UnreachableShards == 0 {
					errCh <- fmt.Errorf("206 with unreachable_shards=0")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestFailoverKillDegradeRecover is the acceptance scenario end to end:
// kill one replica → 200s continue via failover; kill both → 206 with
// UnreachableShards=1, candidates exactly the alive-shard merge, and
// Retry-After advice; restore → the half-open probe closes the breaker
// without any restart and 200s return.
func TestFailoverKillDegradeRecover(t *testing.T) {
	ds, queries := testWorkload(t, 150, 777)
	c, err := Start(ds.Objects, Options{ShardCount: 3, Replicas: 2, Seed: 11, Router: fastRouter()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := queries[0]
	body := QueryBody(q, "PSD", 2)
	oracle, err := PostQuery(c.Single.URL, body)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one replica of shard 1 dies. Failover must keep serving
	// complete answers.
	c.KillReplica(1, 0)
	for i := 0; i < 5; i++ {
		routed, err := PostQuery(c.Front.URL, body)
		if err != nil {
			t.Fatalf("failover query %d: %v", i, err)
		}
		if routed.Status != http.StatusOK {
			t.Fatalf("failover query %d: status %d, want 200", i, routed.Status)
		}
		mustByteEqual(t, fmt.Sprintf("failover %d", i), oracle, routed)
	}
	if c.Router.Stats().Failovers == 0 && c.Router.Stats().Retries == 0 {
		t.Fatal("killing a replica left no failover/retry trace in router stats")
	}

	// Phase 2: the whole shard dies. Expect flagged degradation with an
	// exact unreachable count and the alive-shard merge as the answer.
	c.KillReplica(1, 1)
	aliveOracle := aliveShardMerge(t, c, 1, q, core.PSD, 2)
	var degraded *RawResponse
	for i := 0; i < 6; i++ {
		degraded, err = PostQuery(c.Front.URL, body)
		if err != nil {
			t.Fatalf("degraded query: %v", err)
		}
		if degraded.Status == http.StatusPartialContent {
			break
		}
	}
	if degraded.Status != http.StatusPartialContent {
		t.Fatalf("dead shard: status %d, want 206", degraded.Status)
	}
	if degraded.UnreachableShards != 1 {
		t.Fatalf("dead shard: unreachable_shards=%d, want 1", degraded.UnreachableShards)
	}
	if degraded.RetryAfter == "" {
		t.Fatal("206 must carry Retry-After advice (breaker probe time)")
	}
	var got []struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(degraded.Candidates, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(aliveOracle.Candidates) {
		t.Fatalf("degraded answer has %d candidates, alive-shard merge %d", len(got), len(aliveOracle.Candidates))
	}
	for i := range got {
		if got[i].ID != aliveOracle.Candidates[i].Object.ID() {
			t.Fatalf("degraded candidate %d: id %d, want %d (alive-shard merge)",
				i, got[i].ID, aliveOracle.Candidates[i].Object.ID())
		}
	}

	// Phase 3: the shard comes back. After the breaker cooldown the
	// half-open probe must readmit it — no restart, no manual action.
	c.RestoreShard(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		routed, err := PostQuery(c.Front.URL, body)
		if err != nil {
			t.Fatalf("recovery query: %v", err)
		}
		if routed.Status == http.StatusOK {
			mustByteEqual(t, "recovered", oracle, routed)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not recover within 5s; last status %d", routed.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if c.Router.Stats().ProbeOK == 0 {
		t.Fatal("recovery must have gone through a successful half-open probe")
	}
}

// aliveShardMerge computes the expected degraded answer: the merge over
// every shard except dead, straight through the core pipeline.
func aliveShardMerge(t *testing.T, c *Cluster, dead int, q *uncertain.Object, op core.Operator, k int) *core.Result {
	t.Helper()
	// The HTTP layer normalized the query weights once; replicate that.
	pts := q.Points()
	nq, err := uncertain.New(0, pts, q.Probs())
	if err != nil {
		t.Fatal(err)
	}
	var bands [][]*uncertain.Object
	for si, shard := range c.Shards {
		if si == dead {
			continue
		}
		idx, err := core.NewIndex(shard)
		if err != nil {
			t.Fatal(err)
		}
		res, err := idx.SearchKCtx(context.Background(), nq, op, k, core.SearchOptions{Filters: core.AllFilters})
		if err != nil {
			t.Fatal(err)
		}
		var band []*uncertain.Object
		for _, cand := range res.Candidates {
			band = append(band, cand.Object)
		}
		bands = append(bands, band)
	}
	res, err := core.MergeShardBands(context.Background(), nq, op, k, core.SearchOptions{Filters: core.AllFilters}, bands)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRouterHealthz asserts the /healthz cluster section: breaker states
// visible, degraded status once a shard is dark.
func TestRouterHealthz(t *testing.T) {
	ds, _ := testWorkload(t, 80, 31)
	c, err := Start(ds.Objects, Options{ShardCount: 2, Replicas: 2, Seed: 3, Router: fastRouter()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	health := func() server.Health {
		resp, err := http.Get(c.Front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body server.Health
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	body := health()
	if body.Cluster == nil || len(body.Cluster.Shards) != 2 {
		t.Fatalf("router-backed /healthz must include the cluster section: %+v", body)
	}
	if body.Status != "ok" {
		t.Fatalf("healthy cluster reports %v", body.Status)
	}

	// Trip shard 0's breakers by querying into a dead shard.
	c.KillShard(0)
	qbody := QueryBody(ds.Queries(1, 3, 100, 5)[0], "PSD", 1)
	for i := 0; i < 4; i++ {
		PostQuery(c.Front.URL, qbody)
	}
	body = health()
	if body.Status != "degraded" {
		t.Fatalf("dark shard: /healthz status %v, want degraded", body.Status)
	}
	if body.UnreachableShards < 1 {
		t.Fatalf("dark shard: unreachable_shards=%d", body.UnreachableShards)
	}
	for _, r := range body.Cluster.Shards[0].Replicas {
		if r.Breaker != "open" || r.ProbeAt == "" {
			t.Fatalf("dark shard: replica %s breaker %q, probe at %q", r.URL, r.Breaker, r.ProbeAt)
		}
	}
}

// TestHedgeBeatsSlowReplica: one replica of shard 0 answers every request
// 400ms late, the other at once. Neither fails, so only the hedge — sent
// after the shard's p95, or 25ms before it has samples — can bring the
// answer in well inside the slow delay; the healthy replica must win it
// byte-equal to the oracle.
func TestHedgeBeatsSlowReplica(t *testing.T) {
	ds, queries := testWorkload(t, 120, 808)
	c, err := Start(ds.Objects, Options{ShardCount: 2, Replicas: 2, Seed: 5, Router: fastRouter()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const slow = 400 * time.Millisecond
	c.Injectors[0][0].Slow(slow) // shard 0's primary: every attempt starts there
	for qi, q := range queries[:3] {
		body := QueryBody(q, "PSD", 2)
		oracle, err := PostQuery(c.Single.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		routed, err := PostQuery(c.Front.URL, body)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if routed.Status != http.StatusOK {
			t.Fatalf("q%d: status %d, want 200", qi, routed.Status)
		}
		mustByteEqual(t, fmt.Sprintf("hedged q%d", qi), oracle, routed)
		if elapsed >= slow/2 {
			t.Fatalf("q%d answered in %v: the slow replica's %v set the pace", qi, elapsed, slow)
		}
	}
	if st := c.Router.Stats(); st.HedgeWins < 1 {
		t.Fatalf("no hedge won against a slow primary: %+v", st)
	}
}

// TestRetryRecoversOneReplicaShard: a one-replica shard's first request
// answers 500. There is no other replica to hedge or fail over to, so only
// the retry turns the answer into a byte-equal 200.
func TestRetryRecoversOneReplicaShard(t *testing.T) {
	ds, queries := testWorkload(t, 100, 909)
	c, err := Start(ds.Objects, Options{ShardCount: 2, Replicas: 1, Seed: 9, Router: fastRouter()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := QueryBody(queries[0], "PSD", 2)
	oracle, err := PostQuery(c.Single.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	c.Injectors[1][0].FailNext(1)
	routed, err := PostQuery(c.Front.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if routed.Status != http.StatusOK {
		t.Fatalf("status %d (unreachable_shards=%d), want 200", routed.Status, routed.UnreachableShards)
	}
	mustByteEqual(t, "retried", oracle, routed)
	if st := c.Router.Stats(); st.Retries < 1 || st.Failovers != 0 {
		t.Fatalf("want a retry and no failover: %+v", st)
	}
}
