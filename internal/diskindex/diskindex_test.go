package diskindex

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
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
	// A repeat query finds the pool warm: no more misses than the first.
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

// Super page bytes 12–20 are reserved: a file whose bytes there are all
// 0xFF — where older writers kept the object-ID span — opens, checks clean
// and answers like the memory index under every operator.
func TestOpenIgnoresReservedSuperBytes(t *testing.T) {
	disk, mem, ds, path := buildBoth(t, 120, 5, 55, 64)
	super := disk.SuperPage()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(super, buf); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 20; i++ {
		buf[i] = 0xFF
	}
	if err := pf.WritePage(super, buf, pager.PageSuper); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	if rep, err := FsckStruct(path, 64); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
	ix, err := OpenFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, q := range ds.Queries(3, 4, 200, 81) {
		for _, op := range core.Operators {
			want := mem.Search(q, op).IDs()
			res, err := searchK(ix, q, op, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.IDs(); !slices.Equal(got, want) {
				t.Fatalf("%v: disk %v != memory %v", op, got, want)
			}
		}
	}
}

// An object ID leaves nothing behind in the file: after a mutable session
// inserts an object with a very large ID and deletes it again, the file,
// reopened read-only, runs a cold search within 10 % of the bytes the same
// search took before the session.
func TestDeletedLargeIDLeavesColdSearchBytes(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 200, M: 10, Centers: datagen.NBALike, Seed: 43})
	q := ds.Queries(1, 8, 200, 47)[0]
	path := filepath.Join(t.TempDir(), "ids.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pager.NewPool(pf, 64), ds.Objects); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	cold := func() uint64 {
		ix, err := OpenFile(path, 64)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		runtime.GC() // twice: the engine's scratch pool keeps a victim cache
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := searchK(ix, q, core.PSD, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := cold()

	ix, err := OpenFileMutable(path, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	const big = 1<<22 - 1
	p := make(geom.Point, ix.Dim())
	for i := range p {
		p[i] = 1e6
	}
	if err := ix.Insert(uncertain.MustNew(big, []geom.Point{p}, nil)); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Delete(big); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cold(); got > base+base/10 || got < base-base/10 {
		t.Fatalf("after an insert and delete of ID %d a cold search allocates %d bytes, %d before", big, got, base)
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
