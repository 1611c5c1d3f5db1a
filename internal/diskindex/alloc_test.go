package diskindex

import (
	"path/filepath"
	"runtime"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// Every test of this package runs with recycled transaction buffers filled
// with 0xDB on their way back to the free list: a decoded node, a snapshot
// or a pool frame that kept a transaction's buffer past the transaction
// would read poison, and the conformance, crash-sweep and
// snapshot-isolation suites would fail on it.
func init() { poisonFreeBufs = true }

// TestRecycledBuffersPoisoned checks the hook itself: after a commit the
// free list holds the transaction's buffers, within its bound, every byte
// poisoned — and the committed state reads back intact all the same.
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
}

// TestCommitAllocBudget keeps the write path's garbage from coming back:
// warm insert + delete pairs on a mutable file of the repo benchmark's
// disk_write shape (10 000 × 10 anti-correlated objects, a pool that holds
// the whole file) stay inside an allocation budget. Before the commit path
// owned its memory a pair made ≈ 1 530 allocations and ≈ 294 KB (one log
// buffer and one record copy per page image, a private 4 KB buffer per
// page touched, three maps per transaction, a Union rectangle per
// Enlargement, two slices per decoded entry); it now makes ≈ 70 and
// ≈ 42 KB, nearly all of it the decoded tree nodes, the decoded object a
// delete looks up and the store's copy-on-write directory. The budget is
// that with headroom for a split-heavy stretch, not a target.
func TestCommitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-object file")
	}
	const (
		maxAllocs = 150
		maxBytes  = 64 << 10
	)
	ds := datagen.Generate(datagen.Params{N: 10000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: 17})
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
	ix, err := OpenFileMutable(path, &MutableOptions{Frames: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

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
		pair() // warm: pool frames, log buffer, free list, maps
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
