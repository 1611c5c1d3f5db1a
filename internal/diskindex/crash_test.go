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
// backing file dies at byte offset K, for K stepped across the whole
// transaction, and require that recovery lands on exactly the
// pre-transaction or the post-transaction state — never a mixture, never
// an unopenable file. This is the executable form of the commit
// protocol's central claim (DESIGN.md §2d).

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

// sweepOne copies the base file, opens it with a WAL that crashes at
// limit, runs op (one transaction), kills the process state without a
// checkpoint, reopens cleanly, and classifies the recovered state.
func sweepOne(t *testing.T, base string, limit int64, op func(*Index) error,
	pre, post map[int]bool) (recoveredPost bool) {
	t.Helper()
	dir := filepath.Dir(base)
	work := filepath.Join(dir, "work.pg")
	copyFile(t, base, work)
	copyFile(t, base+".wal", work+".wal")

	opts := &MutableOptions{
		Frames:   32,
		WALLimit: -1, // no auto-checkpoint: the WAL alone carries the commit
		WALWrap:  func(f *os.File) wal.File { return wal.NewCrashFile(f, limit) },
	}
	ix, err := OpenFileMutable(work, opts)
	if err != nil {
		t.Fatalf("limit %d: open with crash file: %v", limit, err)
	}
	opErr := op(ix)
	// Simulate the process dying here: close the raw files; no checkpoint,
	// no pool flush. The page file holds whatever the pool happened to
	// evict — recovery must cope with any mix.
	ix.mut.wal.Close()
	ix.pool.File().Close()

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

// killPoints covers [HeaderSize, HeaderSize+txBytes+slack] with a stride
// coprime to the record sizes plus the exact end of the transaction.
func killPoints(txBytes int64) []int64 {
	var pts []int64
	stride := int64(127)
	if testing.Short() {
		stride = 911
	}
	for d := int64(0); d <= txBytes; d += stride {
		pts = append(pts, wal.HeaderSize+d)
	}
	return append(pts, wal.HeaderSize+txBytes-1, wal.HeaderSize+txBytes, wal.HeaderSize+txBytes+64)
}

// measureTx runs op once against an unlimited WAL and returns the bytes
// the transaction appended.
func measureTx(t *testing.T, base string, op func(*Index) error) int64 {
	t.Helper()
	dir := filepath.Dir(base)
	work := filepath.Join(dir, "work.pg")
	copyFile(t, base, work)
	copyFile(t, base+".wal", work+".wal")
	ix, err := OpenFileMutable(work, &MutableOptions{Frames: 32, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := op(ix); err != nil {
		t.Fatal(err)
	}
	n := ix.WALSize() - wal.HeaderSize
	ix.mut.wal.Close()
	ix.pool.File().Close()
	if n <= 0 {
		t.Fatalf("transaction appended %d WAL bytes", n)
	}
	return n
}

func TestCrashKillPointSweepInsert(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 31, M: 5, EdgeLen: 400, Seed: 41})
	baseObjs, probe := ds.Objects[:30], ds.Objects[30]
	base := crashBase(t, dir, baseObjs)

	pre := make(map[int]bool)
	for _, o := range baseObjs {
		pre[o.ID()] = true
	}
	post := make(map[int]bool)
	for id := range pre {
		post[id] = true
	}
	post[probe.ID()] = true

	insert := func(ix *Index) error { return ix.Insert(probe) }
	txBytes := measureTx(t, base, insert)
	committed := 0
	pts := killPoints(txBytes)
	for _, limit := range pts {
		if sweepOne(t, base, limit, insert, pre, post) {
			committed++
		}
	}
	// The full transaction fits under the largest limits, so at least one
	// point must land post; the earliest points must land pre.
	if committed == 0 || committed == len(pts) {
		t.Fatalf("sweep degenerate: %d/%d points committed", committed, len(pts))
	}
	t.Logf("insert sweep: %d kill points, %d recovered post-state, tx=%d WAL bytes",
		len(pts), committed, txBytes)
}

func TestCrashKillPointSweepDelete(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.Generate(datagen.Params{N: 30, M: 5, EdgeLen: 400, Seed: 43})
	base := crashBase(t, dir, ds.Objects)

	pre := make(map[int]bool)
	for _, o := range ds.Objects {
		pre[o.ID()] = true
	}
	victim := ds.Objects[12].ID()
	post := make(map[int]bool)
	for id := range pre {
		if id != victim {
			post[id] = true
		}
	}

	del := func(ix *Index) error {
		ok, err := ix.Delete(victim)
		if err == nil && !ok {
			return fmt.Errorf("victim %d missing", victim)
		}
		return err
	}
	txBytes := measureTx(t, base, del)
	committed := 0
	pts := killPoints(txBytes)
	for _, limit := range pts {
		if sweepOne(t, base, limit, del, pre, post) {
			committed++
		}
	}
	if committed == 0 || committed == len(pts) {
		t.Fatalf("sweep degenerate: %d/%d points committed", committed, len(pts))
	}
	t.Logf("delete sweep: %d kill points, %d recovered post-state, tx=%d WAL bytes",
		len(pts), committed, txBytes)
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

	// The big object's transaction spans well over 12 pages; 12 whole
	// image records land before the write fails.
	fw.armed, fw.land = true, 12*wal.PageImageRecordSize(ix.pool.File().PageSize())
	err = ix.Insert(big)
	if !errors.Is(err, errFlakyWAL) || errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert over a failing image write: %v, want the injected error and no poison", err)
	}
	if fw.armed {
		t.Fatal("the big transaction's image write was shorter than 12 records; the test lost its premise")
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
