package diskindex

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

// The kill-point sweep: run one write transaction against a WAL whose
// backing file dies after K bytes of writes, for K stepped across the
// whole transaction, and require that recovery lands on exactly the
// pre-transaction or the post-transaction state — never a mixture, never
// an unopenable file. This is the executable form of the commit
// protocol's central claim (DESIGN.md §11). The sweeps run over a log
// holding only its header, and over recycled logs whose older generations
// left records where the transaction lands.

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// crashBase builds a clean checkpointed index file holding objs.
func crashBase(t *testing.T, dir string, objs []*uncertain.Object) string {
	t.Helper()
	base := filepath.Join(dir, "base.pg")
	ix, err := CreateFileMutable(base, 3, &MutableOptions{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return base
}

// idSet returns the live object ids of a mutable index.
func idSet(ix *Index) map[int]bool {
	s := make(map[int]bool, len(ix.mut.byID))
	for id := range ix.mut.byID {
		s[id] = true
	}
	return s
}

func setsEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// crashAfter opens the base's work copy with a WAL that dies after budget
// bytes of writes.
func crashAfter(budget int64) *MutableOptions {
	return &MutableOptions{
		Frames:   32,
		WALLimit: -1, // no auto-checkpoint: the WAL alone carries the commit
		WALWrap:  func(f *os.File) wal.File { return wal.NewCrashFile(f, budget) },
	}
}

// crash drops a mutable index the way a dead process does: the raw files
// close; no checkpoint, no pool flush. The page file holds whatever the
// pool happened to evict — recovery must cope with any mix.
func crash(ix *Index) {
	ix.mut.wal.Close()
	ix.pool.File().Close()
}

// sweepOne copies the base file, opens it with a WAL that crashes after
// limit bytes of writes, runs op (one transaction), kills the process
// state without a checkpoint, reopens cleanly, and classifies the
// recovered state.
func sweepOne(t *testing.T, base string, limit int64, op func(*Index) error,
	pre, post map[int]bool) (recoveredPost bool) {
	t.Helper()
	dir := filepath.Dir(base)
	work := filepath.Join(dir, "work.pg")
	copyFile(t, base, work)
	copyFile(t, base+".wal", work+".wal")

	ix, err := OpenFileMutable(work, crashAfter(limit))
	if err != nil {
		t.Fatalf("limit %d: open with crash file: %v", limit, err)
	}
	opErr := op(ix)
	crash(ix)

	ix2, err := OpenFileMutable(work, &MutableOptions{Frames: 32})
	if err != nil {
		t.Fatalf("limit %d: reopen after crash: %v", limit, err)
	}
	defer ix2.Close()
	if err := ix2.Healthy(t.Context()); err != nil {
		t.Fatalf("limit %d: recovered index unhealthy: %v", limit, err)
	}
	got := idSet(ix2)
	switch {
	case setsEqual(got, post):
		if opErr != nil {
			// A failed op must never become durable: the only acceptable
			// post-state with an error is pre == post (impossible here).
			t.Fatalf("limit %d: op failed (%v) but post-state recovered", limit, opErr)
		}
		return true
	case setsEqual(got, pre):
		if opErr == nil {
			t.Fatalf("limit %d: op reported success but pre-state recovered", limit)
		}
		return false
	default:
		t.Fatalf("limit %d: recovered state is neither pre nor post: %d ids (pre %d, post %d)",
			limit, len(got), len(pre), len(post))
		return false
	}
}

// killPoints covers [open, open+txBytes+slack] — the transaction's bytes
// after the open's own — with a prime stride plus the exact end of the
// transaction. The stride shrank with the transactions when the log
// stopped logging zero tails (127 → 13 bytes; the insert swept here
// 24 677 → 3 540 bytes), so every sweep keeps at least the points it had
// when the log held whole pages.
func killPoints(open, txBytes int64) []int64 {
	var pts []int64
	stride := int64(13)
	if testing.Short() {
		stride = 127
	}
	for d := int64(0); d <= txBytes; d += stride {
		pts = append(pts, open+d)
	}
	return append(pts, open+txBytes-1, open+txBytes, open+txBytes+64)
}

// countingWAL counts the bytes written through it.
type countingWAL struct {
	*os.File
	n int64
}

func (c *countingWAL) WriteAt(p []byte, off int64) (int, error) {
	c.n += int64(len(p))
	return c.File.WriteAt(p, off)
}

// measureTx runs op once against an unlimited WAL over a copy of base and
// returns the bytes the open wrote to the log (a recovery's new
// generation) and the bytes the transaction appended.
func measureTx(t *testing.T, base string, op func(*Index) error) (open, tx int64) {
	t.Helper()
	dir := filepath.Dir(base)
	work := filepath.Join(dir, "work.pg")
	copyFile(t, base, work)
	copyFile(t, base+".wal", work+".wal")
	var c *countingWAL
	ix, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1,
		WALWrap: func(f *os.File) wal.File { c = &countingWAL{File: f}; return c }})
	if err != nil {
		t.Fatal(err)
	}
	open = c.n
	if err := op(ix); err != nil {
		t.Fatal(err)
	}
	tx = ix.WALSize() - wal.HeaderSize
	crash(ix)
	if tx <= 0 || c.n != open+tx {
		t.Fatalf("transaction appended %d WAL bytes and wrote %d", tx, c.n-open)
	}
	return open, tx
}

// runSweep kills op at every kill point over a copy of base and returns
// the bytes the transaction appends. At least one point must land post
// (the full transaction fits under the largest budgets) and one pre.
func runSweep(t *testing.T, name, base string, op func(*Index) error, pre, post map[int]bool) int64 {
	t.Helper()
	open, txBytes := measureTx(t, base, op)
	committed := 0
	pts := killPoints(open, txBytes)
	for _, limit := range pts {
		if sweepOne(t, base, limit, op, pre, post) {
			committed++
		}
	}
	if committed == 0 || committed == len(pts) {
		t.Fatalf("%s sweep degenerate: %d/%d points committed", name, committed, len(pts))
	}
	t.Logf("%s sweep: %d kill points, %d recovered post-state, tx=%d WAL bytes",
		name, len(pts), committed, txBytes)
	return txBytes
}

// ids returns the id set of objs plus extra.
func ids(objs []*uncertain.Object, extra ...*uncertain.Object) map[int]bool {
	s := make(map[int]bool, len(objs)+len(extra))
	for _, o := range append(objs[:len(objs):len(objs)], extra...) {
		s[o.ID()] = true
	}
	return s
}

func without(s map[int]bool, id int) map[int]bool {
	out := make(map[int]bool, len(s))
	for k := range s {
		if k != id {
			out[k] = true
		}
	}
	return out
}

func insertOp(o *uncertain.Object) func(*Index) error {
	return func(ix *Index) error { return ix.Insert(o) }
}

func deleteOp(id int) func(*Index) error {
	return func(ix *Index) error {
		ok, err := ix.Delete(id)
		if err == nil && !ok {
			return fmt.Errorf("object %d missing", id)
		}
		return err
	}
}

func TestCrashKillPointSweepInsert(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 31, M: 5, EdgeLen: 400, Seed: 41})
	baseObjs, probe := ds.Objects[:30], ds.Objects[30]
	base := crashBase(t, dir, baseObjs)
	runSweep(t, "insert", base, insertOp(probe), ids(baseObjs), ids(baseObjs, probe))
}

func TestCrashKillPointSweepDelete(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 30, M: 5, EdgeLen: 400, Seed: 43})
	base := crashBase(t, dir, ds.Objects)
	victim := ds.Objects[12].ID()
	runSweep(t, "delete", base, deleteOp(victim), ids(ds.Objects), without(ids(ds.Objects), victim))
}

// recycledBase builds a clean base holding objs, runs churn on it — one
// transaction each — and checkpoints without the clean close that would
// trim the log: the base's WAL is a new generation with churn's records,
// a generation old, where the next transaction lands. It returns the
// base and churn's record boundaries in the log, read off a scan.
func recycledBase(t *testing.T, dir string, objs []*uncertain.Object, churn ...func(*Index) error) (string, map[int64]bool) {
	t.Helper()
	base := crashBase(t, dir, objs)
	ix, err := OpenFileMutable(base, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range churn {
		if err := op(ix); err != nil {
			t.Fatal(err)
		}
	}
	bounds := map[int64]bool{ix.WALSize(): true}
	if _, _, err := wal.ScanFile(base+".wal", 0, func(r wal.Rec) error { bounds[r.Off] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(ix)
	if rep, err := FsckStruct(base, 32); err != nil || !rep.Clean() || rep.WALRecords != 0 || rep.WALStale == 0 {
		t.Fatalf("fsck of the recycled base: %v %+v; want it clean, no record and an older generation's bytes", err, rep)
	}
	return base, bounds
}

// TestCrashSweepRecycledOnBoundary: the transaction swept is a delete, as
// was the older generation's first one, which a second inserted another
// object after. A delete logs no store page, and the insert put back as
// many entries as the first delete took away, so the swept delete logs the
// pages the older one did at the lengths it did, and ends exactly where the
// older insert — a whole record, valid under its own generation, whose
// tree holds the object the sweep deletes — begins. A scan that read past
// the new generation's end would replay that insert.
func TestCrashSweepRecycledOnBoundary(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 31, M: 5, EdgeLen: 400, Seed: 45})
	baseObjs, extra := ds.Objects[:30], ds.Objects[30]
	gone, victim := baseObjs[3].ID(), baseObjs[12].ID()
	base, bounds := recycledBase(t, t.TempDir(), baseObjs, deleteOp(gone), insertOp(extra))
	pre := without(ids(baseObjs, extra), gone)
	tx := runSweep(t, "recycled, on a boundary", base, deleteOp(victim), pre, without(pre, victim))
	if !bounds[wal.HeaderSize+tx] {
		t.Fatalf("the transaction ends at %d, not on an older record's boundary: the test lost its premise", wal.HeaderSize+tx)
	}
}

// TestCrashSweepRecycledInside: the transaction swept ends inside an older
// generation's record.
func TestCrashSweepRecycledInside(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 34, M: 5, EdgeLen: 400, Seed: 49})
	baseObjs, extra := ds.Objects[:30], ds.Objects[30:]
	churn := make([]func(*Index) error, len(extra))
	for i, o := range extra {
		churn[i] = insertOp(o)
	}
	base, bounds := recycledBase(t, t.TempDir(), baseObjs, churn...)
	pre := ids(baseObjs, extra...)
	victim := baseObjs[7].ID()
	tx := runSweep(t, "recycled, inside a record", base, deleteOp(victim), pre, without(pre, victim))
	end, inside := wal.HeaderSize+tx, false
	for b := range bounds {
		inside = inside || b > end
	}
	if bounds[end] || !inside {
		t.Fatalf("the transaction ends at %d, on a boundary or past every older record: the test lost its premise", end)
	}
}

// TestCrashCheckpointHeaderTorn kills a checkpoint at every byte of the
// header write that starts its new generation. The transaction before it
// was committed, so every point recovers it. The next transaction, killed
// after its commit, must then recover alone: whichever generation the torn
// header names, no record of an older one replays with it.
func TestCrashCheckpointHeaderTorn(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 22, M: 4, EdgeLen: 400, Seed: 53})
	baseObjs, first, second := ds.Objects[:20], ds.Objects[20], ds.Objects[21]
	base := crashBase(t, dir, baseObjs)
	open, tx := measureTx(t, base, insertOp(first))
	work := filepath.Join(dir, "work.pg")
	for k := int64(0); k <= wal.HeaderSize; k++ {
		copyFile(t, base, work)
		copyFile(t, base+".wal", work+".wal")
		ix, err := OpenFileMutable(work, crashAfter(open+tx+wal.CommitRecordSize+k))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(first); err != nil {
			t.Fatalf("header byte %d: %v", k, err)
		}
		if err := ix.Checkpoint(); (err == nil) != (k == wal.HeaderSize) {
			t.Fatalf("header byte %d: checkpoint %v", k, err)
		}
		crash(ix)

		ix2, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1})
		if err != nil {
			t.Fatalf("header byte %d: reopen: %v", k, err)
		}
		if err := ix2.Insert(second); err != nil {
			t.Fatal(err)
		}
		crash(ix2)

		ix3, err := OpenFileMutable(work, &MutableOptions{Frames: 32})
		if err != nil {
			t.Fatalf("header byte %d: second reopen: %v", k, err)
		}
		if rec := ix3.WALRecovery(); rec.CommittedTxs != 1 {
			t.Fatalf("header byte %d: recovery %+v, want the second transaction alone", k, rec)
		}
		if got := idSet(ix3); !setsEqual(got, ids(baseObjs, first, second)) {
			t.Fatalf("header byte %d: recovered %d ids, want the base and both inserts", k, len(got))
		}
		if err := ix3.Healthy(t.Context()); err != nil {
			t.Fatal(err)
		}
		if err := ix3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMidRecovery kills the WAL once, recovers, and verifies a second
// recovery of the already-recovered file is a no-op (idempotent replay).
func TestCrashRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 21, M: 4, EdgeLen: 400, Seed: 47})
	base := crashBase(t, dir, ds.Objects[:20])
	probe := ds.Objects[20]

	work := filepath.Join(dir, "work.pg")
	copyFile(t, base, work)
	copyFile(t, base+".wal", work+".wal")
	ix, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(probe); err != nil {
		t.Fatal(err)
	}
	// Crash with the commit only in the WAL.
	ix.mut.wal.Close()
	ix.pool.File().Close()

	for round := 0; round < 3; round++ {
		ix2, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rec := ix2.WALRecovery()
		if round == 0 && (rec == nil || rec.CommittedTxs != 1) {
			t.Fatalf("round 0: recovery stats %+v", rec)
		}
		if !idSet(ix2)[probe.ID()] {
			t.Fatalf("round %d: committed insert lost", round)
		}
		// Crash again without checkpointing: the next open recovers anew
		// from a WAL that the previous recovery already reset.
		ix2.mut.wal.Close()
		ix2.pool.File().Close()
	}
}

// flakyWAL fails one armed write after landing a prefix of it, then heals
// — a transient log-device error, not a crash.
type flakyWAL struct {
	*os.File
	armed bool
	land  int64 // bytes of the failing write that still reach the file
}

var errFlakyWAL = errors.New("injected wal write failure")

func (f *flakyWAL) WriteAt(p []byte, off int64) (int, error) {
	if f.armed && int64(len(p)) > f.land {
		f.armed = false
		n, _ := f.File.WriteAt(p[:f.land], off)
		return n, errFlakyWAL
	}
	return f.File.WriteAt(p, off)
}

// TestCrashFailedImageWriteAbortsCleanly: a transaction whose image write
// fails after landing whole records aborts without poisoning the index,
// and the records that landed never reach a recovery — the next, shorter
// transaction truncates them instead of leaving them past its own end.
func TestCrashFailedImageWriteAbortsCleanly(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 30, M: 5, EdgeLen: 400, Seed: 77})
	big := datagen.Generate(datagen.Params{N: 1, M: 2000, EdgeLen: 400, Seed: 78}).Objects[0]
	big = uncertain.MustNew(9001, big.Points(), big.Probs())
	small := uncertain.MustNew(9002, ds.Objects[0].Points(), ds.Objects[0].Probs())

	path := filepath.Join(t.TempDir(), "flaky.pg")
	var fw *flakyWAL
	ix, err := CreateFileMutable(path, 3, &MutableOptions{
		Frames:   64,
		WALLimit: -1,
		WALWrap:  func(f *os.File) wal.File { fw = &flakyWAL{File: f}; return fw },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ds.Objects {
		if err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := idSet(ix)
	want[small.ID()] = true

	// The big object's transaction spans well over 12 pages, most of them
	// store pages its record fills to the end; 12 full-page records' worth
	// of bytes land before the write fails.
	fw.armed, fw.land = true, 12*wal.PageImageRecordSize(ix.pool.File().PageSize())
	err = ix.Insert(big)
	if !errors.Is(err, errFlakyWAL) || errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert over a failing image write: %v, want the injected error and no poison", err)
	}
	if fw.armed {
		t.Fatal("the big transaction's image write was shorter than 12 full-page records; the test lost its premise")
	}
	// The small object's transaction is shorter than what landed.
	if err := ix.Insert(small); err != nil {
		t.Fatalf("insert after the healed write: %v", err)
	}
	if walLen := ix.WALSize(); walLen >= wal.HeaderSize+fw.land {
		t.Fatalf("second transaction (%d bytes) is not shorter than the %d that landed", walLen-wal.HeaderSize, fw.land)
	}
	// The process dies here: no checkpoint, no pool flush.
	ix.mut.wal.Close()
	ix.pool.File().Close()

	ix2, err := OpenFileMutable(path, &MutableOptions{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	rec := ix2.WALRecovery()
	if rec.CommittedTxs != 1 || rec.TornBytes != 0 || rec.DroppedTxs > 1 {
		t.Fatalf("recovery %+v: want exactly the second insert, no torn tail, the aborted transaction dropped at most once", rec)
	}
	if got := idSet(ix2); !setsEqual(got, want) {
		t.Fatalf("recovered %d ids, want %d (the base set plus the second insert)", len(got), len(want))
	}
	if err := ix2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStruct(path, 64)
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck after recovery: %v %+v", err, rep)
	}
}
