package diskindex

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

// The tree's leaves are the only record of what is live. These tests pin
// what that buys (a delete logs the tree and the super, nothing else; a
// long-lived writer does not grow with its deletes) and what it must not
// cost (a file the parent format wrote with a tombstone chain is the same
// index; a read-only open never serves the state before a pending WAL).

// liveState renders everything a reader can learn from the file at path
// opened read-only: Len, the ids ScanLive visits in stream order, and the
// candidates of a few searches.
func liveState(t *testing.T, path string, queries []*uncertain.Object) string {
	t.Helper()
	ix, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "len %d\nscan", ix.Len())
	last := diskstore.Ptr(0)
	err = ix.ScanLive(func(p diskstore.Ptr, o *uncertain.Object) error {
		if p < last {
			t.Fatalf("ScanLive visited ptr %d after %d: not stream order", p, last)
		}
		last = p
		fmt.Fprintf(&b, " %d", o.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		for _, op := range []core.Operator{core.SSD, core.PSD} {
			res, err := searchK(ix, q, op, 2)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "\nq%d %v %v", qi, op, sortedIDs(res))
		}
	}
	return b.String()
}

// TestParentFormatTombstoneChainCompat hand-writes the structure the
// parent format kept for deletes — chain pages and the three super fields —
// into a copy of a mutated file, and requires the copy to be the same index
// as the original through a read-only open, a further delete and insert, a
// reopen, fsck and a rewrite.
func TestParentFormatTombstoneChainCompat(t *testing.T) {
	dir := t.TempDir()
	base := fsckBase(t, dir)
	ds := datagen.Generate(datagen.Params{N: 201, M: 5, EdgeLen: 400, Seed: 51})
	queries := ds.Queries(3, 4, 200, 52)
	victim, fresh := ds.Objects[150].ID(), ds.Objects[200]

	plain, chained := filepath.Join(dir, "plain.pg"), filepath.Join(dir, "chained.pg")
	fsckCopy(t, base, plain)
	fsckCopy(t, base, chained)
	writeTombChain(t, chained, deadPtrs(t, chained))

	agree := func(stage string) {
		t.Helper()
		if a, b := liveState(t, plain, queries), liveState(t, chained, queries); a != b {
			t.Fatalf("%s: the file with a tombstone chain differs\nwithout:\n%s\nwith:\n%s", stage, a, b)
		}
		rep, err := FsckStruct(chained, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: fsck of the file with a tombstone chain: %v", stage, rep.Findings)
		}
	}
	agree("as written")
	if s := liveState(t, plain, queries); !strings.HasPrefix(s, "len 160\n") {
		t.Fatalf("base file state: %s", s)
	}

	for _, path := range []string{plain, chained} {
		ix, err := OpenFileMutable(path, &MutableOptions{Frames: 32})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ix.Delete(victim); err != nil || !ok {
			t.Fatalf("%s: delete %d: ok=%v err=%v", path, victim, ok, err)
		}
		if err := ix.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	agree("after a delete, an insert and a reopen")

	// The first commit wrote the reserved bytes as zero: the chain is
	// unreferenced from here on.
	pf, err := pager.Open(chained)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pf.PageSize())
	_, err = pf.ReadPage(SuperPageID, buf)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buf[28:40] {
		if b != 0 {
			t.Fatalf("super byte %d is %#x after a commit, want the reserved bytes zero", 28+i, b)
		}
	}

	for _, path := range []string{plain, chained} {
		if err := RewriteFile(path, 32); err != nil {
			t.Fatal(err)
		}
	}
	agree("after a rewrite")
}

// TestDeleteLogsOnlyTreeAndSuper reads back the WAL of one committed
// delete: its page images are the tree nodes on the deleted entry's path,
// the tree's meta page and the super page. The record stays where it is in
// the heap, so no store page — and no page of any other kind — is logged.
func TestDeleteLogsOnlyTreeAndSuper(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 200, M: 5, EdgeLen: 400, Seed: 57})
	base := crashBase(t, dir, ds.Objects)
	ix, err := OpenFileMutable(base, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ok, err := ix.Delete(ds.Objects[77].ID()); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	images := map[pager.PageType]int{}
	commits := 0
	_, _, err = wal.ScanFile(base+".wal", 0, func(r wal.Rec) error {
		switch r.Type {
		case wal.RecPageImage:
			images[r.PType]++
		case wal.RecCommit:
			commits++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Fatalf("%d commit records, want the delete's one", commits)
	}
	nodes := images[pager.PageTreeNode]
	if nodes < 1 || nodes > ix.tree.Height()+1 || images[pager.PageTreeMeta] != 1 || images[pager.PageSuper] != 1 {
		t.Fatalf("images by page type %v; want 1..%d tree nodes, one tree meta, one super", images, ix.tree.Height()+1)
	}
	if len(images) != 3 {
		t.Fatalf("a delete logged pages other than tree nodes, tree meta and super: %v", images)
	}
}

// TestReadOnlyOpenRefusesPendingWAL is the crash a read-only reader must
// not paper over: a mutable session commits deletes and inserts and dies
// before any checkpoint, so the page file still holds the old tree. OpenFile
// names the log instead of serving that tree; after a checkpoint it serves
// the committed state.
func TestReadOnlyOpenRefusesPendingWAL(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 120, M: 4, EdgeLen: 400, Seed: 59})
	base := crashBase(t, dir, ds.Objects[:80])
	ix, err := OpenFileMutable(base, &MutableOptions{WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if ok, err := ix.Delete(ds.Objects[i].ID()); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
		if err := ix.Insert(ds.Objects[80+i]); err != nil {
			t.Fatal(err)
		}
	}
	want := idSet(ix)
	// Crash: the handle is dropped without Close, so nothing was flushed.
	ix.mut.wal.Close()
	ix.pool.File().Close()

	_, err = OpenFile(base, 32)
	if err == nil || !strings.Contains(err.Error(), base+".wal") ||
		!strings.Contains(err.Error(), "-mutable") || !strings.Contains(err.Error(), "nnc checkpoint") {
		t.Fatalf("read-only open over a pending WAL: err = %v; want a refusal naming %s and both remedies", err, base+".wal")
	}

	rw, err := OpenFileMutable(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil { // Close checkpoints
		t.Fatal(err)
	}
	ro, err := OpenFile(base, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got := map[int]bool{}
	if err := ro.ScanLive(func(_ diskstore.Ptr, o *uncertain.Object) error { got[o.ID()] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if ro.Len() != 80 || !setsEqual(got, want) {
		t.Fatalf("after a checkpoint the read-only open holds %d objects (Len %d); want the 80 the session committed", len(got), ro.Len())
	}
}

// TestWriterHeapDoesNotGrowWithDeletes runs insert/delete pairs on one
// handle and compares the live heap after 1 000 pairs with the live heap
// after 10 000: no writer-side structure keeps an entry per delete. (The
// deleted-pointer set the tree's leaves replaced kept one for the life of
// the process — ≈ 0.3 MB by the end of this run.)
func TestWriterHeapDoesNotGrowWithDeletes(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 commits")
	}
	ds := datagen.Generate(datagen.Params{N: 64, M: 4, EdgeLen: 400, Seed: 67})
	ix, err := CreateFileMutable(filepath.Join(t.TempDir(), "h.pg"), 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, o := range ds.Objects[:32] {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	pairs := func(n int) uint64 {
		for i := 0; i < n; i++ {
			o := ds.Objects[32+i%32]
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
			if ok, err := ix.Delete(o.ID()); err != nil || !ok {
				t.Fatalf("delete: ok=%v err=%v", ok, err)
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at1k := pairs(1000)
	at10k := pairs(9000)
	const bound = 128 << 10
	if at10k > at1k+bound {
		t.Fatalf("live heap %d bytes after 1 000 insert/delete pairs, %d after 10 000: grew by more than %d", at1k, at10k, bound)
	}
}
