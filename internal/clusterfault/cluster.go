package clusterfault

// TestCluster: a whole fleet in one process. N shard partitions × R
// replicas, every replica a real server.Server over the shard's in-memory
// index behind a fault Injector, a Router fanned over them, and a
// single-node reference server over the full dataset — the oracle every
// routed answer is compared against.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"spatialdom/internal/cluster"
	"spatialdom/internal/server"
	"spatialdom/internal/uncertain"
)

// Cluster is the in-process fleet.
type Cluster struct {
	Shards    [][]*uncertain.Object
	Injectors [][]*Injector        // [shard][replica]
	Servers   [][]*httptest.Server // [shard][replica]
	Router    *cluster.Router
	// Front is the router served over HTTP — what a client would hit.
	Front *httptest.Server
	// Single is the single-node oracle over the full dataset.
	Single *httptest.Server
}

// Options shapes a test cluster.
type Options struct {
	ShardCount int
	Replicas   int
	Seed       uint64
	Inject     InjectorConfig
	Router     cluster.Config // Shards filled in by Start
}

// Start builds and discovers the fleet. Chaos injection starts disabled;
// call StartChaos. The caller must Close.
func Start(objs []*uncertain.Object, opt Options) (*Cluster, error) {
	c := &Cluster{Shards: cluster.Partition(objs, opt.ShardCount)}
	urls := make([][]string, 0, len(c.Shards))
	for si, shard := range c.Shards {
		var injs []*Injector
		var servers []*httptest.Server
		var shardURLs []string
		for ri := 0; ri < opt.Replicas; ri++ {
			srv, err := server.New(shard)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("shard %d replica %d: %w", si, ri, err)
			}
			inj := NewInjector(srv, opt.Seed^splitmix64(uint64(si)<<16|uint64(ri)), opt.Inject)
			ts := httptest.NewServer(inj)
			injs = append(injs, inj)
			servers = append(servers, ts)
			shardURLs = append(shardURLs, ts.URL)
		}
		c.Injectors = append(c.Injectors, injs)
		c.Servers = append(c.Servers, servers)
		urls = append(urls, shardURLs)
	}

	rcfg := opt.Router
	rcfg.Shards = urls
	rt, err := cluster.New(rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Refresh(ctx); err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	c.Front = httptest.NewServer(server.NewBackend(rt))

	single, err := server.New(objs)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Single = httptest.NewServer(single)
	return c, nil
}

// StartChaos enables probabilistic injection on every replica.
func (c *Cluster) StartChaos() {
	for _, shard := range c.Injectors {
		for _, inj := range shard {
			inj.StartChaos()
		}
	}
}

// StopChaos disables probabilistic injection everywhere.
func (c *Cluster) StopChaos() {
	for _, shard := range c.Injectors {
		for _, inj := range shard {
			inj.StopChaos()
		}
	}
}

// KillReplica takes one replica down (connection-level).
func (c *Cluster) KillReplica(shard, replica int) { c.Injectors[shard][replica].Kill() }

// RestoreReplica brings one replica back.
func (c *Cluster) RestoreReplica(shard, replica int) { c.Injectors[shard][replica].Restore() }

// KillShard takes every replica of a shard down.
func (c *Cluster) KillShard(shard int) {
	for _, inj := range c.Injectors[shard] {
		inj.Kill()
	}
}

// RestoreShard brings every replica of a shard back.
func (c *Cluster) RestoreShard(shard int) {
	for _, inj := range c.Injectors[shard] {
		inj.Restore()
	}
}

// Close shuts every test server down.
func (c *Cluster) Close() {
	if c.Front != nil {
		c.Front.Close()
	}
	if c.Single != nil {
		c.Single.Close()
	}
	for _, shard := range c.Servers {
		for _, ts := range shard {
			ts.Close()
		}
	}
}

// --- query plumbing -----------------------------------------------------------

// RawResponse keeps the candidates array as raw bytes, so equality checks
// are literally byte-for-byte on the wire encoding.
type RawResponse struct {
	Status            int
	RetryAfter        string
	Operator          string          `json:"operator"`
	K                 int             `json:"k"`
	Candidates        json.RawMessage `json:"candidates"`
	Incomplete        bool            `json:"incomplete"`
	UnreadableNodes   int             `json:"unreadable_nodes"`
	UnreadableObjects int             `json:"unreadable_objects"`
	UnreachableShards int             `json:"unreachable_shards"`
}

// PostQuery sends a /query to base and decodes the response envelope.
func PostQuery(base string, body []byte) (*RawResponse, error) {
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := &RawResponse{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("decoding %d response: %w: %s", resp.StatusCode, err, data)
		}
	} else {
		return out, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return out, nil
}

// QueryBody builds a /query request body.
func QueryBody(q *uncertain.Object, operator string, k int) []byte {
	w := server.ToJSON(q)
	body, err := json.Marshal(server.QueryRequest{
		Instances: w.Instances,
		Weights:   w.Probs,
		Operator:  operator,
		K:         k,
	})
	if err != nil {
		panic(err)
	}
	return body
}
