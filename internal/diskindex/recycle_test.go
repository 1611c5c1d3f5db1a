package diskindex

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/wal"
)

// TestWALFileRecycled: automatic checkpoints recycle the log's file rather
// than truncating it. Over enough commits for several checkpoints the file
// never shrinks below its high-water mark and never grows past the limit
// plus the largest transaction plus the header (the checkpoint record that
// may follow a transaction is one byte longer than the header, and the
// transaction starts below the limit); the log's valid length returns to
// the header at each checkpoint; and walPending follows the log — false
// right after a checkpoint, true after a commit. A clean close trims the
// file back to its header.
func TestWALFileRecycled(t *testing.T) {
	const limit = 48 << 10
	path := filepath.Join(t.TempDir(), "r.pg")
	var c *countingWAL
	ix, err := CreateFileMutable(path, 3, &MutableOptions{Frames: 64, WALLimit: limit,
		WALWrap: func(f *os.File) wal.File { c = &countingWAL{File: f}; return c }})
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.Generate(datagen.Params{N: 60, M: 4, EdgeLen: 400, Seed: 57})
	var high, maxTx int64
	checkpoints := 0
	for _, o := range ds.Objects {
		written := c.n
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		ckpt := ix.WALSize() == wal.HeaderSize
		tx := c.n - written
		if ckpt {
			checkpoints++
			tx -= wal.CommitRecordSize + wal.HeaderSize // the checkpoint record and the new header
		}
		maxTx = max(maxTx, tx)
		st, err := os.Stat(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < high {
			t.Fatalf("commit %d: the log file shrank to %d bytes below its high-water mark %d", o.ID(), st.Size(), high)
		}
		high = st.Size()
		if bound := limit + maxTx + wal.HeaderSize; high > bound {
			t.Fatalf("commit %d: the log file holds %d bytes, past the limit, the largest transaction and the header (%d)", o.ID(), high, bound)
		}
		pending, err := walPending(path)
		if err != nil || pending == ckpt {
			t.Fatalf("commit %d: walPending %v (%v) right after a commit that checkpointed: %v", o.ID(), pending, err, ckpt)
		}
	}
	if checkpoints < 3 {
		t.Fatalf("%d automatic checkpoints, want at least 3", checkpoints)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path + ".wal"); err != nil || st.Size() != wal.HeaderSize {
		t.Fatalf("after a clean close the log file is %v bytes (%v), want the header alone", st.Size(), err)
	}
}

// TestV1WALReplays opens testdata/v1-pending.pg and its log, written by
// the version-1 log format (no generation, CRCs seeded with zero): the
// first 20 objects of datagen seed 4701 (N 21, M 4, edge 400) inserted and
// checkpointed, then object 20 inserted and object 3 deleted, and the
// process killed — two committed transactions in the log and not in the
// page file.
func TestV1WALReplays(t *testing.T) { pendingFixtureReplays(t, "v1-pending", 1, 4701) }

// TestV2WALReplays opens testdata/v2-pending.pg and its log, written by
// the version-2 log format (a generation seeding every CRC, full page
// images): the first 20 objects of datagen seed 4702 (N 21, M 4, edge 400)
// inserted and the file closed, then reopened, object 20 inserted, object
// 3 deleted and the process killed — two committed transactions of
// generation 1 in the log and not in the page file.
func TestV2WALReplays(t *testing.T) { pendingFixtureReplays(t, "v2-pending", 2, 4702) }

// pendingFixtureReplays checks a testdata fixture of an older log version
// holding two committed, unapplied transactions over datagen seed's first
// 20 objects: object 20 inserted, then object 3 deleted. A read-only open
// refuses the file, fsck finds it clean with both pending, and a mutable
// open replays both, leaves a log of the current version and answers as
// the in-memory index over the same set.
func pendingFixtureReplays(t *testing.T, fixture string, version byte, seed int64) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: 21, M: 4, EdgeLen: 400, Seed: seed})
	want := without(ids(ds.Objects[:20], ds.Objects[20]), ds.Objects[3].ID())
	path := filepath.Join(t.TempDir(), fixture+".pg")
	copyFile(t, filepath.Join("testdata", fixture+".pg"), path)
	copyFile(t, filepath.Join("testdata", fixture+".pg.wal"), path+".wal")
	if v := walVersion(t, path); v != version {
		t.Fatalf("fixture log is version %d, want %d", v, version)
	}

	if _, err := OpenFile(path, 32); err == nil || !strings.Contains(err.Error(), "holds transactions") {
		t.Fatalf("read-only open of a pending v%d log: %v", version, err)
	}
	rep, err := FsckStruct(path, 32)
	if err != nil || !rep.Clean() || rep.WALCommitted != 2 || rep.WALTorn != 0 {
		t.Fatalf("fsck of the pending v%d log: %v %+v", version, err, rep)
	}

	ix, err := OpenFileMutable(path, &MutableOptions{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rec := ix.WALRecovery(); rec.CommittedTxs != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovery %+v, want both transactions", rec)
	}
	if got := idSet(ix); !setsEqual(got, want) {
		t.Fatalf("recovered %d ids, want %d", len(got), len(want))
	}
	if v := walVersion(t, path); v != wal.Version {
		t.Fatalf("after the replay the log is version %d, want %d", v, wal.Version)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The replayed file answers as the in-memory index over the same set.
	var objs = ds.Objects[:0:0]
	for _, o := range ds.Objects {
		if want[o.ID()] {
			objs = append(objs, o)
		}
	}
	mem, err := core.NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	for qi, q := range ds.Queries(2, 4, 200, 8) {
		for _, op := range core.Operators {
			res, err := searchK(ro, q, op, 2)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := sortedIDs(memK(mem, q, op, 2)), sortedIDs(res); !idsEqual(want, got) {
				t.Fatalf("q%d %v: disk %v != memory %v", qi, op, got, want)
			}
		}
	}
}

// walVersion returns the format version the header of the log beside the
// page file at path names.
func walVersion(t *testing.T, path string) byte {
	t.Helper()
	raw, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	return raw[4]
}

// TestV2WALHeaderOnlyGetsV3Header: a version-2 log that holds only its
// header needs no recovery, so opening it mutable writes nothing. Its
// first commit must still land under the current version's header: a
// trimmed record under a version-2 header is one a version-2 binary takes
// for a torn tail. The commit dies right after the header write, so the
// header alone is on disk; then a commit lands whole and replays.
func TestV2WALHeaderOnlyGetsV3Header(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 22, M: 4, EdgeLen: 400, Seed: 4703})
	base := crashBase(t, t.TempDir(), ds.Objects[:20])
	raw, err := os.ReadFile(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != wal.HeaderSize {
		t.Fatalf("a closed index left a %d-byte log, want the header alone", len(raw))
	}
	raw[4] = 2
	if err := os.WriteFile(base+".wal", raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ix, err := OpenFileMutable(base, crashAfter(wal.HeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	if v := walVersion(t, base); v != 2 {
		t.Fatalf("opening the header-only log rewrote it as version %d", v)
	}
	if err := ix.Insert(ds.Objects[20]); err == nil {
		t.Fatal("the insert survived a log that dies after the header")
	}
	crash(ix)
	if v := walVersion(t, base); v != wal.Version {
		t.Fatalf("the first commit's header write left version %d, want %d", v, wal.Version)
	}

	ix, err = OpenFileMutable(base, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ds.Objects[21]); err != nil {
		t.Fatal(err)
	}
	crash(ix)
	ix, err = OpenFileMutable(base, &MutableOptions{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if rec := ix.WALRecovery(); rec.CommittedTxs != 1 {
		t.Fatalf("recovery %+v, want the second insert", rec)
	}
	if got := idSet(ix); !setsEqual(got, ids(ds.Objects[:20], ds.Objects[21])) {
		t.Fatalf("recovered %d ids, want the base and the second insert", len(got))
	}
}
