package diskindex

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/pager"
)

// bufferingBackend hands a node's entries to the engine only after the
// inner Expand has returned, as a tracing backend does: a rectangle that
// lives only while the inner visit runs is read after it died.
type bufferingBackend struct {
	core.Backend
	buf []core.BackendEntry
}

func (b *bufferingBackend) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	b.buf = b.buf[:0]
	err := b.Backend.Expand(n, func(e core.BackendEntry) { b.buf = append(b.buf, e) })
	for _, e := range b.buf {
		visit(e)
	}
	return err
}

// A BackendEntry.Rect stays valid until the search that asked for it
// returns (core.Backend.Expand): with each node's entries buffered until
// Expand returns, the direct Index and a per-search session give the
// answers of the unwrapped search, for every operator at k 1 and 3, over
// a tree of several levels and searches enough to recycle pooled sessions.
func TestRectsOutliveExpand(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 600, M: 5, EdgeLen: 400, Seed: 4401})
	pf, err := pager.Create(filepath.Join(t.TempDir(), "idx.pg"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	ix, err := Build(pager.NewPool(pf, 32), ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SearchOptions{Filters: core.AllFilters}
	ctx := context.Background()
	for _, q := range ds.Queries(6, 4, 150, 4402) {
		for _, op := range core.Operators {
			for _, k := range []int{1, 3} {
				want, err := ix.SearchKCtx(ctx, q, op, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := core.SearchBackend(ctx, &bufferingBackend{Backend: ix}, q, op, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				var viaSession *core.Result
				ix.pinned(func(snap *snapshot) {
					s := ix.newSession(snap, ix.pool.NewLeaseCtx(ctx))
					viaSession, err = core.SearchBackend(ctx, &bufferingBackend{Backend: s}, q, op, k, opts)
					s.release()
				})
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*core.Result{"index": direct, "session": viaSession} {
					if !slices.Equal(got.IDs(), want.IDs()) {
						t.Fatalf("%v k=%d, buffered %s: candidates %v, unbuffered %v", op, k, name, got.IDs(), want.IDs())
					}
				}
			}
		}
	}
}

// warmAllocsPerObject and warmAllocsConst bound a warm disk search's
// allocations: per resolved object a coordinate slab, the object, its MBR
// and the decoded-object cache's entry; per search the lease, the result
// and its candidate list, and the engine's closures.
const (
	warmAllocsPerObject = 7
	warmAllocsConst     = 40
	warmBytesPerQuery   = 40 << 10
)

// A warm disk search allocates for the objects it examines and for little
// else: on a 10 000 × 10 file behind a 64-frame pool and a 64-object cache
// (the disk_cold shape), after one pass over the queries has filled the
// pooled session and scratch, allocations per query stay within
// warmAllocsPerObject per resolved object plus warmAllocsConst, and bytes
// per query within warmBytesPerQuery. A node page decoded into storage of
// its own (≈ 1 KB a page), or a record read into a fresh buffer, breaks the
// byte bound. Under the race detector sync.Pool drops a share of what is put
// back, so pooled sessions and scratches are rebuilt at random and the test
// skips.
func TestWarmDiskSearchAllocates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-object file")
	}
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops pooled sessions at random")
	}
	ds := datagen.Generate(datagen.Params{N: 10000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 4403})
	queries := ds.Queries(32, 8, 200, 4404)
	path := filepath.Join(t.TempDir(), "cold.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pager.NewPool(pf, 256), ds.Objects); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.SetObjCacheCap(64)
	opts := core.SearchOptions{Filters: core.AllFilters}
	pass := func() (examined int) {
		for _, q := range queries {
			res, err := ix.SearchKCtx(context.Background(), q, core.SSD, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			examined += res.Examined
		}
		return examined
	}
	pass() // warm the pooled session, the engine's scratch and the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	examined := pass()
	runtime.ReadMemStats(&after)
	n := float64(len(queries))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	perObject := float64(examined) / n
	t.Logf("%.1f allocs and %.0f bytes a query, %.1f objects resolved", allocs, bytes, perObject)
	if limit := warmAllocsPerObject*perObject + warmAllocsConst; allocs > limit {
		t.Fatalf("%.1f allocations a query for %.1f resolved objects, want at most %.1f", allocs, perObject, limit)
	}
	if bytes > warmBytesPerQuery {
		t.Fatalf("%.0f bytes a query, want at most %d", bytes, warmBytesPerQuery)
	}
}
