package diskindex

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskstore"
	"spatialdom/internal/uncertain"
)

// Golden digests of TestCommitSameBytesOnDisk: the FNV-64a of the page
// file and of the WAL its fixed sequence leaves behind. The page file's
// was captured before the writer decoded into an arena and stopped copying
// the heap directory; the WAL's when the log became version 2 (a
// generation in the header seeding every CRC, and a checkpoint that
// recycles the file, so the second half of the sequence overwrites the
// first's records). A change to the write path that is not meant to change
// the format must leave both in place.
const (
	goldenPageFile = 0xb52013890584efbb
	goldenWAL      = 0xa3ffdd00f1e6bc0a
)

// TestCommitSameBytesOnDisk runs a fixed insert/delete/checkpoint sequence
// on a small mutable file — leaf and root splits, deletes that dissolve
// underfull nodes and reinsert their entries, tail pages extended and
// copy-on-written, records of several lengths and labels, pool evictions
// through a 24-frame pool — and compares the page file and the WAL, byte
// for byte by digest, with the ones captured before.
func TestCommitSameBytesOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.pg")
	ix, err := CreateFileMutable(path, 3, &MutableOptions{Frames: 24, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	batch := func(n, m int, seed int64, firstID int) []*uncertain.Object {
		objs := datagen.Generate(datagen.Params{N: n, M: m, EdgeLen: 400, Seed: seed}).Objects
		for i, o := range objs {
			objs[i] = uncertain.MustNew(firstID+i, o.Points(), o.Probs())
			if i%7 == 0 {
				objs[i].SetLabel(fmt.Sprintf("object-%d", firstID+i))
			}
		}
		return objs
	}
	insert := func(objs []*uncertain.Object) {
		for _, o := range objs {
			if err := ix.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(objs []*uncertain.Object) {
		for _, o := range objs {
			if ok, err := ix.Delete(o.ID()); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", o.ID(), ok, err)
			}
		}
	}
	first := batch(500, 4, 4501, 0)
	insert(first)
	del(first[50:350]) // most of the tree: whole leaves dissolve
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := batch(200, 9, 4502, 1000)
	insert(second)
	for i := 0; i < len(second); i += 3 {
		del(second[i : i+1])
	}
	insert(first[60:120])

	digest := func(name string) uint64 {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	pageFile, walFile := digest(path), digest(path+".wal")
	t.Logf("page file %#x, WAL %#x", pageFile, walFile)
	if pageFile != goldenPageFile || walFile != goldenWAL {
		t.Fatalf("page file %#x and WAL %#x, want %#x and %#x", pageFile, walFile, uint64(goldenPageFile), uint64(goldenWAL))
	}
}

// TestDeleteNeverDecodesRecord: a delete finds its tree entry by the
// record's MBR (Store.ReadMBR), without decoding the object. The victim's
// record holds a negative probability, which every decode refuses and the
// MBR read never looks at: the delete succeeds, and a search that resolves
// every live object afterwards no longer meets the record.
func TestDeleteNeverDecodesRecord(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 200, M: 5, EdgeLen: 400, Seed: 4511})
	ix, err := CreateFileMutable(filepath.Join(t.TempDir(), "c.pg"), 3, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	victim := ds.Objects[0]
	victim.Probs()[0] = -victim.Probs()[0] // Insert encodes the slab as it is
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	ix.writeMu.Lock()
	ptr := ix.mut.byID[victim.ID()]
	ix.writeMu.Unlock()
	if _, err := ix.store.Read(ptr); !errors.Is(err, diskstore.ErrCorrupt) {
		t.Fatalf("decoding the victim's record: %v, want %v", err, diskstore.ErrCorrupt)
	}
	if ok, err := ix.Delete(victim.ID()); err != nil || !ok {
		t.Fatalf("delete %d: %v %v", victim.ID(), ok, err)
	}
	for _, q := range ds.Queries(6, 4, 200, 4512) {
		if _, err := ix.SearchKCtx(context.Background(), q, core.SSD, 2, core.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}
