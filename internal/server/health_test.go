package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"spatialdom/internal/cluster"
	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

// TestHealthzIsHealth: the /healthz body of a memory, disk, warming and
// router-backed server — bare and behind the front door, healthy and
// degraded — decodes into server.Health with no unknown field, and carries
// exactly the keys the untyped map it replaced wrote in that state.
func TestHealthzIsHealth(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 60, M: 4, Seed: 5})
	base := []string{"status", "time"}
	data := []string{"objects", "dim"}
	io := block("io", "pool_hits", "pool_misses", "page_reads", "page_writes")
	frontKeys := block("front", "cache_hits", "cache_misses", "cache_evictions", "cache_invalidations", "cache_bytes",
		"cache_entries", "coalesce_hits", "cache_negative_hits", "shed_rate_limited", "shed_capacity", "in_flight", "epoch")
	faultKeys := slices.Concat([]string{"quarantined_pages"}, block("faults", "checksum_failures", "torn_pages",
		"short_reads", "transient_retries", "recovered_reads", "quarantined_pages"))
	clusterKeys := slices.Concat(block("cluster", "shards"),
		block("cluster.shards[]", "shard", "objects", "p95_us", "replicas"),
		block("cluster.shards[].replicas[]", "url", "breaker"),
		block("cluster.stats", "requests", "retries", "hedges", "hedge_wins", "failovers", "breaker_opens",
			"probe_successes", "probe_failures", "unreachable_shard_queries", "partial_answers"))

	mem, err := server.New(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	checkHealth(t, "memory", mem, base, data, io)
	checkHealth(t, "warming", server.NewWarming("indexing"), base, []string{"reason"})

	// The nncserver stack: warming behind the front door, then a door over
	// a MemStore attached.
	srv := server.NewWarming("indexing")
	fh := front.NewHandler(srv, nil, front.Config{})
	srv.SetFront(fh)
	checkHealth(t, "warming front", fh, base, []string{"reason"}, frontKeys)
	store, err := front.NewMemStore(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	door := front.NewDoor(store, front.DoorConfig{})
	fh.AttachDoor(door)
	srv.Attach(door)
	checkHealth(t, "memory front", fh, base, data, frontKeys)

	pf, err := pager.Create(filepath.Join(t.TempDir(), "h.pg"), pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	disk, err := diskindex.Build(pager.NewPool(pf, 64), ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	checkHealth(t, "disk", server.NewBackend(disk), base, data, faultKeys, io)

	var urls [][]string
	var shards []*httptest.Server
	for _, part := range cluster.Partition(ds.Objects, 2) {
		s, err := server.New(part)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		shards = append(shards, ts)
		urls = append(urls, []string{ts.URL})
	}
	rt, err := cluster.New(cluster.Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	routed := server.NewBackend(rt)
	checkHealth(t, "router", routed, base, data, clusterKeys)

	// One query into a dead shard trips its only breaker.
	shards[0].Close()
	q := ds.Queries(1, 3, 100, 6)[0]
	if _, err := rt.SearchKCtx(context.Background(), q, core.PSD, 1, core.SearchOptions{Filters: core.AllFilters}); err == nil {
		t.Fatal("a dead shard must degrade the answer")
	}
	h := checkHealth(t, "degraded router", routed, base, data, clusterKeys,
		[]string{"cluster.shards[].replicas[].probe_at", "reason", "unreachable_shards"})
	if h.Status != "degraded" || h.UnreachableShards != 1 || h.Cluster.Shards[0].Replicas[0].Breaker != "open" {
		t.Fatalf("degraded router health: %+v", h)
	}
}

// block is name.field for each field, and name itself unless it names an
// array's elements ("a[]").
func block(name string, fields ...string) []string {
	var out []string
	if !strings.HasSuffix(name, "[]") {
		out = append(out, name)
	}
	for _, f := range fields {
		out = append(out, name+"."+f)
	}
	return out
}

// checkHealth GETs /healthz from h, decodes it strictly into server.Health
// and compares the body's key paths ("a.b", "a[].b") with the union of
// want.
func checkHealth(t *testing.T, state string, h http.Handler, want ...[]string) server.Health {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: /healthz answered %d", state, rec.Code)
	}
	var out server.Health
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s: %v in %s", state, err, rec.Body)
	}
	var raw any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	keyPaths("", raw, set)
	var got, wantKeys []string
	for k := range set {
		got = append(got, k)
	}
	for _, w := range want {
		wantKeys = append(wantKeys, w...)
	}
	sort.Strings(got)
	sort.Strings(wantKeys)
	if !slices.Equal(got, wantKeys) {
		t.Fatalf("%s: /healthz keys\n got  %q\n want %q", state, got, wantKeys)
	}
	return out
}

func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, e, out)
		}
	case []any:
		for _, e := range x {
			keyPaths(prefix+"[]", e, out)
		}
	}
}
