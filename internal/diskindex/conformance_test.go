package diskindex

// Backend-conformance suite: the disk-resident backend must be
// observationally identical to the in-memory backend through the shared
// engine — same candidates, same emission order, same Limit prefixes, and
// the same mid-search cancellation behavior — for every operator × filter
// configuration, while additionally reporting correct I/O counters.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// conformanceConfigs is every filter configuration exercised by the suite:
// the ablation corners plus each individual filter. (Defined locally: the
// harness package imports diskindex, so it cannot be imported from here.)
var conformanceConfigs = []struct {
	name string
	cfg  core.FilterConfig
}{
	{"none", core.FilterConfig{}},
	{"all", core.AllFilters},
	{"stat", core.FilterConfig{StatPruning: true}},
	{"geom", core.FilterConfig{Geometric: true}},
}

// emissions flattens a result into comparable (ID, Rank, Dominators)
// triples plus the MinDist keys, i.e. the full observable emission order.
func emissions(res *core.Result) []string {
	out := make([]string, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = fmt.Sprintf("%d@%d dom=%d key=%.9f", c.Object.ID(), c.Rank, c.Dominators, c.MinDist)
	}
	return out
}

// TestConformanceCandidatesAndOrder holds the disk backend's emissions to
// the memory backend's on two datasets: generated clouds, and grid points
// each held by 1–3 single-instance copies, shuffled, on 512-byte pages so
// the two trees differ in shape. The copies tie keys, and a tie batch must
// still come out in one order on both. Only trees of one shape examine the
// same objects: a smaller node is pruned where a larger one is not.
func TestConformanceCandidatesAndOrder(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 140, 6, 61, 64)
	conformEmissions(t, "clouds", disk, mem, ds.Queries(3, 4, 200, 62), true)

	rng := rand.New(rand.NewSource(67))
	var objs []*uncertain.Object
	for range 60 {
		p := geom.Point{float64(rng.Intn(8)), float64(rng.Intn(8))}
		for range 1 + rng.Intn(3) {
			objs = append(objs, uncertain.MustNew(len(objs)+1, []geom.Point{p}, nil))
		}
	}
	rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	mem, err := core.NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pager.Create(filepath.Join(t.TempDir(), "grid.pg"), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	disk, err = Build(pager.NewPool(pf, 64), objs)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*uncertain.Object
	for range 3 {
		queries = append(queries, uncertain.MustNew(0, []geom.Point{{rng.Float64() * 8, rng.Float64() * 8}, {rng.Float64() * 8, rng.Float64() * 8}}, nil))
	}
	conformEmissions(t, "grid with copies", disk, mem, queries, false)
}

func conformEmissions(t *testing.T, set string, disk *Index, mem *core.Index, queries []*uncertain.Object, sameShape bool) {
	t.Helper()
	for _, q := range queries {
		for _, op := range core.Operators {
			for _, cc := range conformanceConfigs {
				for _, k := range []int{1, 3} {
					opts := core.SearchOptions{Filters: cc.cfg}
					want, err := mem.SearchKCtx(context.Background(), q, op, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := disk.SearchKCtx(context.Background(), q, op, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					we, ge := emissions(want), emissions(got)
					if len(we) != len(ge) {
						t.Fatalf("%s %v/%s k=%d: disk emitted %v, memory %v", set, op, cc.name, k, ge, we)
					}
					for i := range we {
						if we[i] != ge[i] {
							t.Fatalf("%s %v/%s k=%d: emission %d differs: disk %q, memory %q",
								set, op, cc.name, k, i, ge[i], we[i])
						}
					}
					if sameShape && want.Examined != got.Examined {
						t.Fatalf("%s %v/%s k=%d: disk examined %d, memory %d",
							set, op, cc.name, k, got.Examined, want.Examined)
					}
				}
			}
		}
	}
}

func TestConformanceLimitPrefixStability(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 140, 6, 63, 64)
	q := ds.Queries(1, 4, 200, 64)[0]
	for _, op := range core.Operators {
		for _, cc := range conformanceConfigs {
			full, err := mem.SearchKCtx(context.Background(), q, op, 1, core.SearchOptions{Filters: cc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			for lim := 1; lim <= len(full.Candidates); lim++ {
				for name, b := range map[string]core.KSearcher{"mem": mem, "disk": disk} {
					// A prefix is taken by cancelling from OnCandidate.
					ctx, cancel := context.WithCancel(context.Background())
					emitted := 0
					res, err := b.SearchKCtx(ctx, q, op, 1, core.SearchOptions{Filters: cc.cfg, OnCandidate: func(core.Candidate) {
						if emitted++; emitted == lim {
							cancel()
						}
					}})
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatal(err)
					}
					if len(res.Candidates) != lim {
						t.Fatalf("%v/%s %s limit=%d: got %d candidates", op, cc.name, name, lim, len(res.Candidates))
					}
					for i := 0; i < lim; i++ {
						if res.Candidates[i].Object.ID() != full.Candidates[i].Object.ID() {
							t.Fatalf("%v/%s %s limit=%d: prefix diverges at %d: %d != %d",
								op, cc.name, name, lim, i,
								res.Candidates[i].Object.ID(), full.Candidates[i].Object.ID())
						}
					}
				}
			}
		}
	}
}

func TestConformanceCancellation(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 140, 6, 65, 64)
	q := ds.Queries(1, 4, 200, 66)[0]
	for _, op := range core.Operators {
		full, err := mem.SearchKCtx(context.Background(), q, op, 1, core.SearchOptions{Filters: core.AllFilters})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Candidates) < 2 {
			continue // nothing to interrupt
		}
		run := func(name string, s func(context.Context, core.SearchOptions) (*core.Result, error)) {
			ctx, cancel := context.WithCancel(context.Background())
			opts := core.SearchOptions{
				Filters:     core.AllFilters,
				OnCandidate: func(core.Candidate) { cancel() }, // cancel after the first emission
			}
			res, err := s(ctx, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v/%s: err = %v, want context.Canceled", op, name, err)
			}
			if res == nil {
				t.Fatalf("%v/%s: canceled search returned nil partial result", op, name)
			}
			if len(res.Candidates) >= len(full.Candidates) {
				t.Fatalf("%v/%s: cancellation did not stop the search (%d of %d candidates)",
					op, name, len(res.Candidates), len(full.Candidates))
			}
			// The partial result must be a prefix of the full emission order.
			for i, c := range res.Candidates {
				if c.Object.ID() != full.Candidates[i].Object.ID() {
					t.Fatalf("%v/%s: partial result is not a prefix at %d", op, name, i)
				}
			}
			cancel()
		}
		run("mem", func(ctx context.Context, o core.SearchOptions) (*core.Result, error) {
			return mem.SearchKCtx(ctx, q, op, 1, o)
		})
		run("disk", func(ctx context.Context, o core.SearchOptions) (*core.Result, error) {
			return disk.SearchKCtx(ctx, q, op, 1, o)
		})
	}
}

// I/O accounting. The filters are off so that the search resolves every
// object entry it pops, as it always did: with them on, a query this small rejects almost
// every leaf entry on its MBR and never leaves the pages already pooled
// (TestDiskSearchCountsIO pins resolves == Examined for that case).
func TestConformanceIOStats(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 200, 6, 67, 16) // pool far smaller than the file
	q := ds.Queries(1, 4, 200, 68)[0]
	none := core.SearchOptions{}

	memRes, err := mem.SearchKCtx(context.Background(), q, core.PSD, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if memRes.IO != (core.IOStats{}) {
		t.Fatalf("memory backend reported I/O: %+v", memRes.IO)
	}

	cold, err := disk.SearchKCtx(context.Background(), q, core.PSD, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Examined != memRes.Examined {
		t.Fatalf("disk examined %d, memory %d", cold.Examined, memRes.Examined)
	}
	if cold.IO.Accesses() == 0 || cold.IO.Misses == 0 {
		t.Fatalf("cold disk search recorded no page traffic: %+v", cold.IO)
	}
	if cold.IO.Reads != cold.IO.Misses {
		t.Fatalf("reads %d != misses %d", cold.IO.Reads, cold.IO.Misses)
	}
}

// A search's page accesses are a function of the query and the snapshot
// alone: every resolve reads its record through the buffer pool, so
// running the same query again on a warm index touches the same pages
// (Hits+Misses; only the split moves as the pool warms) and emits the same
// candidates in the same order.
func TestRepeatSearchSameAccesses(t *testing.T) {
	disk, _, ds, _ := buildBoth(t, 200, 6, 67, 16)
	for _, q := range ds.Queries(3, 4, 200, 68) {
		for _, op := range []core.Operator{core.SSD, core.PSD} {
			for _, cc := range conformanceConfigs[:2] { // none, all
				opts := core.SearchOptions{Filters: cc.cfg}
				first, err := disk.SearchKCtx(context.Background(), q, op, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				again, err := disk.SearchKCtx(context.Background(), q, op, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if first.IO.Accesses() != again.IO.Accesses() {
					t.Fatalf("%v, filters %s: %d page accesses, then %d on the same query", op, cc.name, first.IO.Accesses(), again.IO.Accesses())
				}
				if a, b := emissions(first), emissions(again); !slices.Equal(a, b) {
					t.Fatalf("%v, filters %s: emissions %v, then %v on the same query", op, cc.name, a, b)
				}
			}
		}
	}
}

// A disk S-SD search allocates only the decodes of the records it reads:
// every examined object is decoded afresh, and nothing else is built per
// object. At the commit before the query summary the same search made 4469
// allocations (72 objects examined: 23 to decode a six-instance record, 39
// to bulk-load a local R-tree for the heap key); the bound leaves room for
// the decode and none for any per-object structure.
func TestConformanceDiskSearchAllocatesOnlyDecodes(t *testing.T) {
	const parentAllocsPerQuery = 4469
	disk, _, ds, _ := buildBoth(t, 140, 6, 61, 64)
	q := ds.Queries(1, 4, 200, 62)[0]
	search := func() {
		if _, err := disk.SearchKCtx(context.Background(), q, core.SSD, 1, core.SearchOptions{Filters: core.AllFilters}); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if avg := testing.AllocsPerRun(10, search); avg > 0.45*parentAllocsPerQuery {
		t.Fatalf("%.0f allocations per query, want under 45%% of the %d a tree per object cost", avg, parentAllocsPerQuery)
	}
}
