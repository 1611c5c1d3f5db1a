package diskindex

import (
	"bytes"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// Every test of this package runs with recycled transaction buffers filled
// with 0xDB on their way back to the free list, Tx.Read's result filled
// with 0xDB at the transaction's next call, and the writer's arena filled
// with NaN corners and -1 references when it is reset: a decoded node, a
// rectangle, a snapshot or a pool frame that kept a transaction's memory
// past the transaction, or a caller that kept a Read result past its
// contract, would read poison, and the conformance, crash-sweep and
// snapshot-isolation suites would fail on it.
func init() { poisonFreeBufs = true }

// TestRecycledBuffersPoisoned checks the hook itself: after a commit the
// free list holds the transaction's buffers, within its bound, every byte
// poisoned — and the committed state reads back intact all the same, so
// the buffers a commit installed as pool frames were not among them. A
// single writer never finds a page it installs pinned, so no install fell
// back to a copy.
func TestRecycledBuffersPoisoned(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 60, M: 5, EdgeLen: 400, Seed: 91})
	ix, err := CreateFileMutable(filepath.Join(t.TempDir(), "p.pg"), 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	bufs := ix.mut.freeBufs
	if len(bufs) == 0 || len(bufs) > maxFreeBufs {
		t.Fatalf("free list holds %d buffers, want 1..%d", len(bufs), maxFreeBufs)
	}
	for i, buf := range bufs {
		for j, b := range buf {
			if b != 0xDB {
				t.Fatalf("free buffer %d byte %d is %#x, not poisoned", i, j, b)
			}
		}
	}
	if err := ix.Healthy(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := len(idSet(ix)); n != len(ds.Objects) {
		t.Fatalf("%d live objects, want %d", n, len(ds.Objects))
	}
	if n := ix.pool.FrameCopies(); n != 0 {
		t.Fatalf("%d installs copied into a pinned frame, want 0", n)
	}
}

// TestTxReadPinEndsAtNextCall holds Tx.Read to the pager.TxPager
// contract: a committed page comes back as its pool frame itself, pinned
// until the transaction's next call and no longer — a Put into the frame
// copies while the pin lasts and swaps after. Under poisonFreeBufs, which
// every other test of this package runs with, Read hands out a private
// copy instead and the next call fills it with 0xDB.
func TestTxReadPinEndsAtNextCall(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 40, M: 5, EdgeLen: 400, Seed: 93})
	ix, err := CreateFileMutable(filepath.Join(t.TempDir(), "r.pg"), 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	tx, pool := ix.mut.tx, ix.pool
	defer tx.release()
	root := pager.PageID(ix.snap.Load().root)
	frame, err := pool.Get(root)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(frame)
	pool.Unpin(root)
	// pinned reports whether root's frame is pinned: a Put of its own bytes
	// then copies instead of taking the buffer.
	pinned := func() bool {
		before := pool.FrameCopies()
		if _, err := pool.Put(root, bytes.Clone(want), pager.PageTreeNode); err != nil {
			t.Fatal(err)
		}
		return pool.FrameCopies() > before
	}

	got, err := tx.Read(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || pinned() {
		t.Fatal("poisoned Read: not the committed bytes, or a pin left on the frame")
	}
	if _, err := tx.Read(ix.super); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xDB || !bytes.Equal(got, bytes.Repeat([]byte{0xDB}, len(got))) {
		t.Fatal("the next call left a poisoned Read's copy unpoisoned")
	}

	poisonFreeBufs = false
	defer func() { poisonFreeBufs = true }()
	frame, err = pool.Get(root)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(root)
	if got, err = tx.Read(root); err != nil {
		t.Fatal(err)
	}
	if &got[0] != &frame[0] {
		t.Fatal("Read copied a committed page instead of handing out its frame")
	}
	if !pinned() {
		t.Fatal("Read's frame is not pinned until the next call")
	}
	if _, err := tx.Read(ix.super); err != nil {
		t.Fatal(err)
	}
	if pinned() {
		t.Fatal("Read's pin outlived the transaction's next call")
	}
	if _, err := tx.Read(root); err != nil {
		t.Fatal(err)
	}
	tx.release()
	if pinned() {
		t.Fatal("Read's pin outlived the transaction")
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose runtime allocates for its own bookkeeping and whose sync.Pool
// drops pooled values at random: allocation gates skip there.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// writeFile builds a file of n objects of the repo benchmark's disk_write
// shape (3-d, 10 anti-correlated instances each) and opens it mutable with
// a pool that holds it all, returning the index and 64 objects to insert
// whose ids the file does not use.
func writeFile(t *testing.T, n int) (*Index, []*uncertain.Object) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 17})
	extra := datagen.Generate(datagen.Params{N: 64, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 24}).Objects
	for i, o := range extra {
		extra[i] = uncertain.MustNew(len(ds.Objects)+1+i, o.Points(), o.Probs())
	}
	path := filepath.Join(t.TempDir(), "w.pg")
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
	ix, err := OpenFileMutable(path, &MutableOptions{Frames: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, extra
}

// TestCommitAllocBudget keeps the write path's garbage from coming back:
// warm insert + delete pairs on a mutable file of the repo benchmark's
// disk_write shape (10 000 objects) stay inside an allocation budget.
// Before the commit path owned its memory a pair made ≈ 1 530 allocations
// and ≈ 294 KB; before its nodes decoded into the writer's arena, a delete
// read its MBR without resolving the object and an append stopped copying
// the heap directory, 62 and 41.6 KB (the decoded nodes, the object and
// the directory). It now makes 13 and ≈ 0.9 KB, the published snapshot
// and its store clone among them. The budget is that with headroom for a
// split-heavy stretch; a node decoded into storage of its own (≈ 3.5 KB of
// corners and rectangles a node) or a copied directory (≈ 2.7 KB here)
// breaks it.
func TestCommitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-object file")
	}
	if raceBuild() {
		t.Skip("the race runtime allocates for itself")
	}
	const (
		maxAllocs = 24
		maxBytes  = 2048
	)
	ix, extra := writeFile(t, 10000)
	next := 0
	pair := func() {
		o := extra[next%len(extra)]
		next++
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		if ok, err := ix.Delete(o.ID()); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", o.ID(), ok, err)
		}
	}
	for range extra {
		pair() // warm: pool frames, log buffer, free list, maps, arena
	}
	const rounds = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(rounds, pair)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (rounds + 1) // AllocsPerRun runs one extra
	t.Logf("%.0f allocations, %.0f bytes per insert+delete pair", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a warm insert+delete pair made %.0f allocations and %.0f bytes, budget %d and %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// insertBytes returns the bytes allocated per warm insert on ix: each
// object of extra inserted and deleted once to warm, then again with only
// the inserts measured.
func insertBytes(t *testing.T, ix *Index, extra []*uncertain.Object) float64 {
	t.Helper()
	var total uint64
	var before, after runtime.MemStats
	for round := range 2 {
		for _, o := range extra {
			runtime.ReadMemStats(&before)
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if round == 1 {
				total += after.TotalAlloc - before.TotalAlloc
			}
			if ok, err := ix.Delete(o.ID()); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", o.ID(), ok, err)
			}
		}
	}
	return float64(total) / float64(len(extra))
}

// TestCommitBytesIgnoreFileSize: what an insert allocates does not grow
// with the file. An append that copied the heap directory on each
// copy-on-write of the tail page allocated 4 bytes per data page — ≈ 0.7
// KB an insert on a 2 000-object file, ≈ 6.6 KB on a 20 000-object one —
// so the two sizes' bytes per warm insert must agree within 10 %.
func TestCommitBytesIgnoreFileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-object file")
	}
	if raceBuild() {
		t.Skip("the race runtime allocates for itself")
	}
	small, smallExtra := writeFile(t, 2000)
	large, largeExtra := writeFile(t, 20000)
	b2k, b20k := insertBytes(t, small, smallExtra), insertBytes(t, large, largeExtra)
	t.Logf("%.0f bytes a warm insert at 2 000 objects, %.0f at 20 000", b2k, b20k)
	if b20k > 1.1*b2k || b2k > 1.1*b20k {
		t.Fatalf("a warm insert allocates %.0f bytes at 2 000 objects and %.0f at 20 000: more than 10 %% apart", b2k, b20k)
	}
}
