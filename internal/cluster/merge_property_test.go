package cluster

// The merge invariant as a property test, at the core level (no HTTP, no
// fault envelope — internal/clusterfault covers the wire): for random
// Fig12-style workloads × shard counts 1–8 × every operator × filter
// configurations, the sharded pipeline
//
//	Partition → per-shard k-skyband → MergeShardBands
//
// must reproduce the single-node engine's answer exactly: same IDs, same
// ranks, same dominator counts, same MinDist bits. See the proof sketch
// in internal/core/merge.go for why this holds.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

var allOperators = []core.Operator{core.SSD, core.SSSD, core.PSD, core.FSD, core.FPlusSD}

// filterMatrix mirrors the conformance matrix's filter configurations:
// brute force, each family alone, and everything.
var filterMatrix = map[string]core.FilterConfig{
	"BF":  {},
	"P":   {StatPruning: true},
	"G":   {Geometric: true},
	"All": core.AllFilters,
}

// shardedSearch partitions objs into n shards, collects per-shard
// k-skybands, and merges them.
func shardedSearch(t *testing.T, objs []*uncertain.Object, n int, q *uncertain.Object, op core.Operator, k int, opts core.SearchOptions) *core.Result {
	t.Helper()
	shards := Partition(objs, n)
	bands := make([][]*uncertain.Object, 0, len(shards))
	for _, shard := range shards {
		idx, err := core.NewIndex(shard)
		if err != nil {
			t.Fatalf("shard index: %v", err)
		}
		res, err := idx.SearchKCtx(context.Background(), q, op, k, opts)
		if err != nil {
			t.Fatalf("shard search: %v", err)
		}
		band := make([]*uncertain.Object, 0, len(res.Candidates))
		for _, c := range res.Candidates {
			band = append(band, c.Object)
		}
		bands = append(bands, band)
	}
	merged, err := core.MergeShardBands(context.Background(), q, op, k, opts, bands)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

// mustEqualResults asserts candidate-for-candidate equality, bit-exact on
// distances.
func mustEqualResults(t *testing.T, label string, single, sharded *core.Result) {
	t.Helper()
	if len(single.Candidates) != len(sharded.Candidates) {
		t.Fatalf("%s: single node found %d candidates, sharded %d",
			label, len(single.Candidates), len(sharded.Candidates))
	}
	for i := range single.Candidates {
		a, b := single.Candidates[i], sharded.Candidates[i]
		if a.Object.ID() != b.Object.ID() {
			t.Fatalf("%s: candidate %d: single id %d, sharded id %d",
				label, i, a.Object.ID(), b.Object.ID())
		}
		if a.Rank != b.Rank {
			t.Fatalf("%s: candidate %d: rank %d vs %d", label, i, a.Rank, b.Rank)
		}
		if a.Dominators != b.Dominators {
			t.Fatalf("%s: candidate %d (id %d): dominators %d vs %d",
				label, i, a.Object.ID(), a.Dominators, b.Dominators)
		}
		if math.Float64bits(a.MinDist) != math.Float64bits(b.MinDist) {
			t.Fatalf("%s: candidate %d (id %d): min_dist %x vs %x",
				label, i, a.Object.ID(), math.Float64bits(a.MinDist), math.Float64bits(b.MinDist))
		}
	}
}

func TestMergeInvariantProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	workloads := []datagen.Params{
		{N: 120, Dim: 2, M: 6, EdgeLen: 600, Centers: datagen.Independent, Seed: 11},
		{N: 150, Dim: 3, M: 5, EdgeLen: 400, Centers: datagen.AntiCorrelated, Seed: 23},
		{N: 100, M: 4, Centers: datagen.Clustered, Seed: 37},
	}
	for wi, p := range workloads {
		ds := datagen.Generate(p)
		single, err := core.NewIndex(ds.Objects)
		if err != nil {
			t.Fatalf("workload %d: %v", wi, err)
		}
		queries := ds.Queries(2, 4, 200, int64(100+wi))
		for qi, q := range queries {
			for _, op := range allOperators {
				for fname, cfg := range filterMatrix {
					for _, k := range []int{1, 3} {
						opts := core.SearchOptions{Filters: cfg}
						want, err := single.SearchKCtx(context.Background(), q, op, k, opts)
						if err != nil {
							t.Fatalf("single-node search: %v", err)
						}
						// Shard counts 1–8 — 1 checks the degenerate
						// passthrough, 8 exceeds the tile structure.
						for shards := 1; shards <= 8; shards++ {
							got := shardedSearch(t, ds.Objects, shards, q, op, k, opts)
							label := fmt.Sprintf("workload %d q%d %s/%s k=%d shards=%d",
								wi, qi, op, fname, k, shards)
							mustEqualResults(t, label, want, got)
						}
					}
				}
			}
		}
	}
}

// TestMergeInvariantTiesAndCopies holds the merge to the single-node
// search where keys tie: grid points, each held by 1–3 single-instance
// copies under their own IDs, shuffled, and a two-instance query. A tie
// batch is emitted in ID order by both, whatever tree each runs over, so
// the answers are equal candidate for candidate.
func TestMergeInvariantTiesAndCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(2106))
	merges, tied := 0, 0
	for set := range 25 {
		var objs []*uncertain.Object
		for range 30 {
			p := geom.Point{float64(rng.Intn(8)), float64(rng.Intn(8))}
			for range 1 + rng.Intn(3) {
				objs = append(objs, uncertain.MustNew(len(objs)+1, []geom.Point{p}, nil))
			}
		}
		rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		q := uncertain.MustNew(0, []geom.Point{{rng.Float64() * 8, rng.Float64() * 8}, {rng.Float64() * 8, rng.Float64() * 8}}, nil)
		single, err := core.NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range allOperators {
			for k := 1; k <= 4; k++ {
				opts := core.SearchOptions{Filters: core.AllFilters}
				want, err := single.SearchKCtx(context.Background(), q, op, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				for shards := 1; shards <= 8; shards++ {
					got := shardedSearch(t, objs, shards, q, op, k, opts)
					mustEqualResults(t, fmt.Sprintf("set %d %s k=%d shards=%d", set, op, k, shards), want, got)
					merges++
					for i := 1; i < len(want.Candidates); i++ {
						if want.Candidates[i].MinDist == want.Candidates[i-1].MinDist {
							tied++
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d merges equal to the single-node search, %d of them tied", merges, tied)
	if tied == 0 {
		t.Fatal("no answer was tied")
	}
}

// TestMergeInvariantMetrics runs a slim sweep under the non-default
// distance metrics, which change every key and dominance decision.
func TestMergeInvariantMetrics(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 90, Dim: 2, M: 5, EdgeLen: 500, Centers: datagen.Independent, Seed: 77})
	single, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 4, 200, 7)[0]
	for _, metric := range []string{"manhattan", "chebyshev"} {
		m := mustMetric(t, metric)
		opts := core.SearchOptions{Filters: core.AllFilters, Metric: m}
		for _, op := range allOperators {
			want, err := single.SearchKCtx(context.Background(), q, op, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			for shards := 2; shards <= 5; shards++ {
				got := shardedSearch(t, ds.Objects, shards, q, op, 2, opts)
				mustEqualResults(t, metric+"/"+op.String(), want, got)
			}
		}
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 101, Dim: 2, M: 3, Centers: datagen.Independent, Seed: 5})
	for _, n := range []int{1, 2, 3, 7, 8, 101, 200} {
		shards := Partition(ds.Objects, n)
		wantShards := n
		if wantShards > len(ds.Objects) {
			wantShards = len(ds.Objects)
		}
		if len(shards) != wantShards {
			t.Fatalf("n=%d: got %d shards, want %d", n, len(shards), wantShards)
		}
		seen := map[int]bool{}
		total := 0
		for si, sh := range shards {
			if len(sh) == 0 {
				t.Fatalf("n=%d: shard %d empty", n, si)
			}
			total += len(sh)
			for _, o := range sh {
				if seen[o.ID()] {
					t.Fatalf("n=%d: object %d in two shards", n, o.ID())
				}
				seen[o.ID()] = true
			}
		}
		if total != len(ds.Objects) {
			t.Fatalf("n=%d: %d objects across shards, want %d", n, total, len(ds.Objects))
		}
		// Near-equal sizing: max-min ≤ 1.
		min, max := len(shards[0]), len(shards[0])
		for _, sh := range shards {
			if len(sh) < min {
				min = len(sh)
			}
			if len(sh) > max {
				max = len(sh)
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d: shard sizes range %d..%d", n, min, max)
		}
	}
}

// mustMetric resolves a metric by name for the metric sweep.
func mustMetric(t *testing.T, name string) geom.Metric {
	t.Helper()
	switch name {
	case "manhattan":
		return geom.Manhattan
	case "chebyshev":
		return geom.Chebyshev
	}
	t.Fatalf("unknown metric %q", name)
	return nil
}
