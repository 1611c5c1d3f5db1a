package diskindex

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

func buildBoth(t *testing.T, n, m int, seed int64, frames int) (*Index, *core.Index, *datagen.Dataset, string) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, M: m, EdgeLen: 400, Seed: seed})
	mem, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	pool := pager.NewPool(pf, frames)
	disk, err := Build(pool, ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	return disk, mem, ds, path
}

// searchK is the tests' shorthand for the full call under a background
// context with every filter on; memK is the same for the memory index,
// which cannot fail there.
func searchK(s core.KSearcher, q *uncertain.Object, op core.Operator, k int) (*core.Result, error) {
	return s.SearchKCtx(context.Background(), q, op, k, core.SearchOptions{Filters: core.AllFilters})
}

func memK(mem *core.Index, q *uncertain.Object, op core.Operator, k int) *core.Result {
	res, _ := searchK(mem, q, op, k)
	return res
}

// The disk search must return exactly the in-memory candidate set under
// every operator.
func TestDiskSearchMatchesMemory(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 150, 6, 51, 64)
	queries := ds.Queries(4, 4, 200, 77)
	for _, q := range queries {
		for _, op := range core.Operators {
			want := mem.Search(q, op).IDs()
			res, err := searchK(disk, q, op, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := res.IDs()
			sort.Ints(want)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%v: disk %v != memory %v", op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: disk %v != memory %v", op, got, want)
				}
			}
		}
	}
}

// countingBackend counts the object entries the engine is handed (each is
// pruned or examined) and the ones it resolves.
type countingBackend struct {
	core.Backend
	entries, resolves int
}

func (c *countingBackend) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	return c.Backend.Expand(n, func(e core.BackendEntry) {
		if !e.IsNode {
			c.entries++
		}
		visit(e)
	})
}

func (c *countingBackend) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	c.resolves++
	return c.Backend.Resolve(r)
}

// With the filters off the search resolves every entry it pops, and the I/O
// that costs is counted. With them on, an object page is read only for an
// entry the band could not reject on its MBR: resolves == Examined, and every
// object entry handed out is either pruned or examined.
func TestDiskSearchCountsIO(t *testing.T) {
	disk, _, ds, _ := buildBoth(t, 200, 6, 52, 16) // pool far smaller than the file
	q := ds.Queries(1, 4, 200, 78)[0]
	none := core.SearchOptions{}
	res, err := disk.SearchKCtx(context.Background(), q, core.SSSD, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.Misses == 0 || res.IO.Reads == 0 {
		t.Fatalf("cold search recorded no I/O: %+v", res.IO)
	}
	if res.IO.Reads != res.IO.Misses {
		t.Fatalf("reads %d != misses %d", res.IO.Reads, res.IO.Misses)
	}
	if res.Stats.DominanceChecks == 0 || res.Elapsed <= 0 {
		t.Fatal("dominance stats missing")
	}
	// A repeat query hits the object cache + warm pool: strictly fewer misses.
	res2, err := disk.SearchKCtx(context.Background(), q, core.SSSD, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if res2.IO.Misses > res.IO.Misses {
		t.Fatalf("warm search missed more (%d) than cold (%d)", res2.IO.Misses, res.IO.Misses)
	}

	for _, cfg := range []core.FilterConfig{core.AllFilters, {}} {
		cb := &countingBackend{Backend: disk}
		res, err := core.SearchBackend(context.Background(), cb, q, core.SSSD, 1, core.SearchOptions{Filters: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if cb.resolves != res.Examined {
			t.Fatalf("filters %+v: %d resolves for %d examined", cfg, cb.resolves, res.Examined)
		}
		if int64(cb.entries) != res.Stats.ObjectPrunes+int64(res.Examined) {
			t.Fatalf("filters %+v: %d object entries popped, %d pruned + %d examined",
				cfg, cb.entries, res.Stats.ObjectPrunes, res.Examined)
		}
		if cfg == core.AllFilters && res.Stats.ObjectPrunes == 0 {
			t.Fatal("no object entry was pruned on its MBR")
		}
		if cfg == (core.FilterConfig{}) && cb.resolves != cb.entries {
			t.Fatalf("filters off: %d of %d object entries resolved", cb.resolves, cb.entries)
		}
	}
}

func TestDiskIndexReopen(t *testing.T) {
	disk, mem, ds, path := buildBoth(t, 100, 5, 53, 64)
	super := disk.SuperPage()
	q := ds.Queries(1, 4, 200, 79)[0]
	want := mem.Search(q, core.PSD).IDs()
	sort.Ints(want)

	// Reopen from the file alone.
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pool := pager.NewPool(pf, 64)
	disk2, err := Open(pool, super)
	if err != nil {
		t.Fatal(err)
	}
	if disk2.Len() != 100 || disk2.Dim() != 3 {
		t.Fatalf("reopened metadata: len=%d dim=%d", disk2.Len(), disk2.Dim())
	}
	res, err := searchK(disk2, q, core.PSD, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := res.IDs()
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("reopened search %v != %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopened search %v != %v", got, want)
		}
	}
	if disk2.String() == "" {
		t.Fatal("String empty")
	}
}

func TestOpenBadSuper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pg")
	pf, err := pager.Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pool := pager.NewPool(pf, 8)
	id, buf, err := pool.Allocate(pager.PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	pool.Unpin(id)
	if _, err := Open(pool, id); err != ErrBadSuper {
		t.Fatalf("err = %v", err)
	}
}

// The disk k-skyband must match the in-memory SearchK.
func TestDiskSearchKMatchesMemory(t *testing.T) {
	disk, mem, ds, _ := buildBoth(t, 120, 5, 54, 64)
	q := ds.Queries(1, 4, 200, 80)[0]
	for _, k := range []int{1, 2, 4} {
		for _, op := range []core.Operator{core.SSD, core.PSD} {
			want := memK(mem, q, op, k).IDs()
			res, err := searchK(disk, q, op, k)
			if err != nil {
				t.Fatal(err)
			}
			got := res.IDs()
			sort.Ints(want)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: disk %v != memory %v", op, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v k=%d: disk %v != memory %v", op, k, got, want)
				}
			}
		}
	}
	if _, err := searchK(disk, q, core.SSD, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// A file whose super page reports span 0 — what a build predating span
// persistence would read — must still open, advertise no dense ID span,
// and fall back to the map-backed object-cache table with results
// identical to the in-memory index under every operator.
func TestOpenSpanZeroLegacyFallback(t *testing.T) {
	disk, mem, ds, path := buildBoth(t, 120, 5, 55, 64)
	super := disk.SuperPage()
	if disk.DenseIDSpan() <= 0 {
		t.Fatalf("build persisted span %d, want positive", disk.DenseIDSpan())
	}

	// Zero the persisted span field (super page bytes 12..20) in place.
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(super, buf); err != nil {
		t.Fatal(err)
	}
	clear(buf[12:20])
	if err := pf.WritePage(super, buf, pager.PageSuper); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf, err = pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	legacy, err := Open(pager.NewPool(pf, 64), super)
	if err != nil {
		t.Fatal(err)
	}
	if got := legacy.DenseIDSpan(); got != 0 {
		t.Fatalf("legacy DenseIDSpan() = %d, want 0", got)
	}
	for _, q := range ds.Queries(3, 4, 200, 81) {
		for _, op := range core.Operators {
			want := mem.Search(q, op).IDs()
			res, err := searchK(legacy, q, op, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := res.IDs()
			sort.Ints(want)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%v: span-0 disk %v != memory %v", op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: span-0 disk %v != memory %v", op, got, want)
				}
			}
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.pg")
	pf, err := pager.Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if _, err := Build(pager.NewPool(pf, 8), nil); err == nil {
		t.Fatal("empty build accepted")
	}
}
