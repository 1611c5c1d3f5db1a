package diskindex

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

func idsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareAll checks the mutable disk index against the in-memory dynamic
// index for every operator over the given queries, at k=1 and k=2.
func compareAll(t *testing.T, tag string, disk *Index, mem *core.Index, queries []*uncertain.Object) {
	t.Helper()
	for qi, q := range queries {
		for _, op := range core.Operators {
			for _, k := range []int{1, 2} {
				memRes := memK(mem, q, op, k)
				diskRes, err := searchK(disk, q, op, k)
				if err != nil {
					t.Fatalf("%s q%d %v k=%d: disk: %v", tag, qi, op, k, err)
				}
				want, got := sortedIDs(memRes), sortedIDs(diskRes)
				if !idsEqual(want, got) {
					t.Fatalf("%s q%d %v k=%d: disk %v != memory %v", tag, qi, op, k, got, want)
				}
			}
		}
	}
}

// TestMutableConformance drives the mutable disk index and the in-memory
// dynamic index through one seeded insert/delete workload and requires
// identical search results at every step, then again after a reopen
// (exercising super/tombstone/directory persistence) and after a rewrite.
func TestMutableConformance(t *testing.T) {
	const n = 120
	ds := datagen.Generate(datagen.Params{N: n, M: 5, EdgeLen: 400, Seed: 61})
	queries := ds.Queries(3, 4, 200, 62)
	rng := rand.New(rand.NewSource(63))

	path := filepath.Join(t.TempDir(), "mut.pg")
	disk, err := CreateFileMutable(path, 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	// Seed both sides with the same initial objects.
	initial := ds.Objects[:40]
	mem, err := core.NewIndex(initial)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range initial {
		if err := disk.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	compareAll(t, "seed", disk, mem, queries)

	// Interleave inserts of the unused objects with deletes of live ones.
	live := append([]*uncertain.Object(nil), initial...)
	next := 40
	for step := 0; step < 12; step++ {
		for i := 0; i < 6 && next < n; i++ {
			o := ds.Objects[next]
			next++
			if err := disk.Insert(o); err != nil {
				t.Fatalf("step %d insert %d: %v", step, o.ID(), err)
			}
			if err := mem.Insert(o); err != nil {
				t.Fatalf("step %d mem insert %d: %v", step, o.ID(), err)
			}
			live = append(live, o)
		}
		for i := 0; i < 3 && len(live) > 5; i++ {
			vi := rng.Intn(len(live))
			victim := live[vi]
			live = append(live[:vi], live[vi+1:]...)
			ok, err := disk.Delete(victim.ID())
			if err != nil {
				t.Fatalf("step %d delete %d: %v", step, victim.ID(), err)
			}
			if !ok {
				t.Fatalf("step %d delete %d: reported absent", step, victim.ID())
			}
			if !mem.Delete(victim.ID()) {
				t.Fatalf("step %d mem delete %d: absent", step, victim.ID())
			}
		}
		if disk.Len() != mem.Len() {
			t.Fatalf("step %d: disk len %d != mem len %d", step, disk.Len(), mem.Len())
		}
		compareAll(t, fmt.Sprintf("step%d", step), disk, mem, queries)
	}

	// Deleting an absent id is a clean no-op.
	if ok, err := disk.Delete(10_000); err != nil || ok {
		t.Fatalf("delete of absent id: ok=%v err=%v", ok, err)
	}

	epoch := disk.Epoch()
	if epoch == 0 {
		t.Fatal("epoch did not advance")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen mutable: recovery + tombstone/directory reload.
	disk2, err := OpenFileMutable(path, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	if disk2.Len() != mem.Len() {
		t.Fatalf("reopen: disk len %d != mem len %d", disk2.Len(), mem.Len())
	}
	if disk2.Epoch() != epoch {
		t.Fatalf("reopen: epoch %d != %d", disk2.Epoch(), epoch)
	}
	compareAll(t, "reopen", disk2, mem, queries)

	// The same file opened read-only must agree too.
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Open(pager.NewPool(pf, 64), SuperPageID)
	if err != nil {
		pf.Close()
		t.Fatal(err)
	}
	if ro.Len() != mem.Len() {
		pf.Close()
		t.Fatalf("read-only: len %d != %d", ro.Len(), mem.Len())
	}
	compareAll(t, "readonly", ro, mem, queries)
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// Mutate again after the reopen, then rewrite (compaction) and check
	// the rebuilt file one more time.
	if err := disk2.Insert(ds.Objects[n-1]); err != nil && !errors.Is(err, core.ErrDuplicateID) {
		t.Fatal(err)
	}
	if _, dup := disk2.mut.byID[ds.Objects[n-1].ID()]; dup {
		if err := mem.Insert(ds.Objects[n-1]); err != nil && !errors.Is(err, core.ErrDuplicateID) {
			t.Fatal(err)
		}
	}
	compareAll(t, "post-reopen-insert", disk2, mem, queries)
	if err := disk2.Close(); err != nil {
		t.Fatal(err)
	}

	if err := RewriteFile(path, 64); err != nil {
		t.Fatal(err)
	}
	pf2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	rw, err := Open(pager.NewPool(pf2, 64), SuperPageID)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Len() != mem.Len() {
		t.Fatalf("rewrite: len %d != %d", rw.Len(), mem.Len())
	}
	compareAll(t, "rewritten", rw, mem, queries)
}

func TestMutableEmptySearch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.pg")
	ix, err := CreateFileMutable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 0 {
		t.Fatalf("empty index Len=%d", ix.Len())
	}
	ds := datagen.Generate(datagen.Params{N: 2, M: 4, EdgeLen: 400, Seed: 7})
	q := ds.Queries(1, 4, 200, 8)[0]
	res, err := searchK(ix, q, core.SSSD, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs()) != 0 {
		t.Fatalf("empty index returned candidates %v", res.IDs())
	}
}

func TestMutableAPIErrors(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 4, M: 4, EdgeLen: 400, Seed: 9})
	path := filepath.Join(t.TempDir(), "api.pg")
	ix, err := CreateFileMutable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ds.Objects[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ds.Objects[0]); !errors.Is(err, core.ErrDuplicateID) {
		t.Fatalf("duplicate insert: %v", err)
	}
	wrongDim, err := uncertain.New(99, []geom.Point{{1, 2}, {3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(wrongDim); !errors.Is(err, core.ErrIndexDimMix) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if err := ix.Healthy(t.Context()); err != nil {
		t.Fatalf("healthy: %v", err)
	}
	if !ix.Mutable() {
		t.Fatal("Mutable() = false")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ds.Objects[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := ix.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}

	// Read-only indexes refuse mutation.
	ro, _, _, _ := buildBoth(t, 20, 4, 11, 16)
	if err := ro.Insert(ds.Objects[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only insert: %v", err)
	}
	if _, err := ro.Delete(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only delete: %v", err)
	}
	if ro.Mutable() {
		t.Fatal("read-only Mutable() = true")
	}
}

// TestMutableOpenBulkBuilt opens a bulk-Built file mutably and mutates it:
// the directory materializes from the contiguous layout on first append.
func TestMutableOpenBulkBuilt(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 60, M: 5, EdgeLen: 400, Seed: 21})
	queries := ds.Queries(3, 4, 200, 22)
	path := filepath.Join(t.TempDir(), "bulk.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pager.NewPool(pf, 64), ds.Objects[:50]); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	mem, err := core.NewIndex(ds.Objects[:50])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenFileMutable(path, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	compareAll(t, "bulk-open", ix, mem, queries)

	for _, o := range ds.Objects[50:] {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := mem.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, oi := range []int{0, 17, 33} {
		id := ds.Objects[oi].ID()
		if ok, err := ix.Delete(id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		if !mem.Delete(id) {
			t.Fatalf("mem delete %d absent", id)
		}
	}
	compareAll(t, "bulk-mutated", ix, mem, queries)

	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenFileMutable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	compareAll(t, "bulk-reopen", ix2, mem, queries)
}

// TestMutableAutoCheckpoint keeps the WAL below a tiny limit across many
// commits and checks the file stays reopenable at every point.
func TestMutableAutoCheckpoint(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 4, EdgeLen: 400, Seed: 31})
	path := filepath.Join(t.TempDir(), "ckpt.pg")
	// Limit of one page image: practically every commit checkpoints.
	ix, err := CreateFileMutable(path, 3, &MutableOptions{WALLimit: pager.PageSize, Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		if got, limit := ix.WALSize(), int64(2*pager.PageSize); got > limit+int64(pager.PageSize) {
			t.Fatalf("WAL grew to %d despite limit", got)
		}
	}
	if ix.mut.ckptFails != 0 {
		t.Fatalf("%d auto-checkpoints failed", ix.mut.ckptFails)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := OpenFileMutable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != len(ds.Objects) {
		t.Fatalf("reopen after checkpoints: len %d != %d", ix2.Len(), len(ds.Objects))
	}
}

// TestMutableCreateDropsStaleWAL: a log left beside a path by a session
// that died must not replay its pages into the file CreateFileMutable
// writes there next.
func TestMutableCreateDropsStaleWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "again.pg")
	ds := datagen.Generate(datagen.Params{N: 8, M: 3, EdgeLen: 400, Seed: 61})
	old, err := CreateFileMutable(path, 3, &MutableOptions{WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ds.Objects {
		if err := old.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	// The process dies: the commits are in the log only.
	old.mut.wal.Close()
	old.pool.File().Close()

	fresh, err := CreateFileMutable(path, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// It dies too, before any checkpoint could truncate the log.
	fresh.mut.wal.Close()
	fresh.pool.File().Close()
	ix, err := OpenFileMutable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if rec := ix.WALRecovery(); ix.Len() != 0 || rec.CommittedTxs != 0 {
		t.Fatalf("re-created file holds %d objects after replaying %d stale transactions", ix.Len(), rec.CommittedTxs)
	}
}

// TestCreateFileDropsStaleWAL: a bulk build over a path whose mutable
// session died with commits in its log gets the same treatment as
// CreateFileMutable. Neither a read-only nor a mutable open of the rebuilt
// file sees the old log, and an empty object set is refused before the
// rebuilt file is touched.
func TestCreateFileDropsStaleWAL(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 60, M: 3, EdgeLen: 400, Seed: 63})
	path := crashBase(t, t.TempDir(), ds.Objects)
	old, err := OpenFileMutable(path, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ds.Objects[:20] {
		if ok, err := old.Delete(o.ID()); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", o.ID(), ok, err)
		}
	}
	crash(old) // the deletes are in the log only

	other := datagen.Generate(datagen.Params{N: 25, M: 4, EdgeLen: 400, Seed: 64}).Objects
	built, err := CreateFile(path, other, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenFile(path, 32)
	if err != nil {
		t.Fatalf("read-only open of the rebuilt file: %v", err)
	}
	if ro.Len() != len(other) {
		t.Errorf("rebuilt file opens read-only with %d objects, want %d", ro.Len(), len(other))
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenFileMutable(path, nil)
	if err != nil {
		t.Fatalf("mutable open of the rebuilt file: %v", err)
	}
	if rec := ix.WALRecovery(); ix.Len() != len(other) || rec.CommittedTxs != 0 {
		t.Errorf("rebuilt file holds %d objects after replaying %d stale transactions, want %d and 0", ix.Len(), rec.CommittedTxs, len(other))
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := CreateFile(path, nil, 32); !errors.Is(err, ErrNoObjects) {
		t.Fatalf("CreateFile with no objects: %v, want %v", err, ErrNoObjects)
	}
	again, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != len(other) {
		t.Fatalf("a refused empty build left %d objects, want %d", again.Len(), len(other))
	}
}
