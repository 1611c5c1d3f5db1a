package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spatialdom/internal/pager"
)

// opFile records the operations that reach the log's file, in the order
// issued, and can fail one write after landing a prefix of it (then heal)
// or fail every sync.
type opFile struct {
	*os.File
	ops       []string // "write", "truncate", "sync"
	failWrite int      // the n-th write from now fails; 0 = none
	land      int64    // bytes of the failing write that still reach the file
	failSync  bool
}

var errInjected = errors.New("injected log-device failure")

func (f *opFile) WriteAt(p []byte, off int64) (int, error) {
	f.ops = append(f.ops, "write")
	if f.failWrite > 0 {
		if f.failWrite--; f.failWrite == 0 {
			n, _ := f.File.WriteAt(p[:f.land], off)
			return n, errInjected
		}
	}
	return f.File.WriteAt(p, off)
}

func (f *opFile) Truncate(size int64) error {
	f.ops = append(f.ops, "truncate")
	return f.File.Truncate(size)
}

func (f *opFile) Sync() error {
	f.ops = append(f.ops, "sync")
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// openOpLog opens a fresh log in dir over an opFile, the header's
// operations already forgotten.
func openOpLog(t *testing.T, dir string) (*Log, *opFile) {
	t.Helper()
	var of *opFile
	l, err := Open(filepath.Join(dir, "t.wal"), testPayload, func(f *os.File) File {
		of = &opFile{File: f}
		return of
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	of.ops = nil
	return l, of
}

// TestAppendCommitIsTwoWrites pins the write path's shape: however many
// images a transaction has, they reach the file in one write, the commit
// record in a second, and a nil return has issued exactly one sync, after
// its last write. The log grows by the records written: the first image is
// all zeros and logs no byte of image, the others log whole pages.
func TestAppendCommitIsTwoWrites(t *testing.T) {
	for _, n := range []int{1, 5, maxRetainedRecords + 3} {
		l, of := openOpLog(t, t.TempDir())
		images := make([]PageImage, n)
		for i := range images {
			images[i] = page(pager.PageID(i+1), byte(i))
		}
		tx, err := l.Commit(images)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"write", "write", "sync"}; !slices.Equal(of.ops, want) {
			t.Fatalf("%d images: the commit issued %v, want %v", n, of.ops, want)
		}
		want := HeaderSize + CommitRecordSize
		for _, im := range images {
			want += imageRecordSize(im)
		}
		if l.Size() != want {
			t.Fatalf("%d images: size %d, want %d", n, l.Size(), want)
		}
		var got []Rec
		info, err := l.Scan(func(r Rec) error { got = append(got, r); return nil })
		if err != nil || info.Records != n+1 || info.Torn != 0 {
			t.Fatalf("scan: %+v, %v", info, err)
		}
		for i, r := range got {
			if r.TxID != tx || (i < n) != (r.Type == RecPageImage) || (i == n) != (r.Type == RecCommit) {
				t.Fatalf("%d images: record %d is %+v: images first, the commit record last, all under tx %d", n, i, r, tx)
			}
		}
	}
}

// TestCommitFailureClass: the error says which side of the commit point
// the commit died on. A failed image write promised nothing — clean, the
// log still at its old length; from the commit record's write on — that
// write or the sync — the error wraps ErrIndeterminate, and recovery finds
// the transaction exactly when the record landed.
func TestCommitFailureClass(t *testing.T) {
	cases := []struct {
		name          string
		arm           func(*opFile)
		indeterminate bool
		recovered     bool // the transaction is in the log afterwards
	}{
		{"image write", func(f *opFile) { f.failWrite, f.land = 1, PageImageRecordSize(testPayload) }, false, false},
		{"commit record write", func(f *opFile) { f.failWrite, f.land = 2, CommitRecordSize/2 }, true, false},
		{"sync", func(f *opFile) { f.failSync = true }, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pf, _ := newPageFile(t, dir, 3)
			defer pf.Close()
			l, of := openOpLog(t, dir)
			tc.arm(of)
			_, err := l.Commit([]PageImage{page(1, 0x41), page(2, 0x42)})
			if !errors.Is(err, errInjected) || errors.Is(err, ErrIndeterminate) != tc.indeterminate {
				t.Fatalf("commit: %v, want the injected error, indeterminate: %v", err, tc.indeterminate)
			}
			if !tc.indeterminate && l.Size() != HeaderSize {
				t.Fatalf("append offset moved to %d on a clean abort", l.Size())
			}
			of.failSync = false
			st, err := Recover(l, pf)
			if err != nil {
				t.Fatal(err)
			}
			if (st.CommittedTxs == 1) != tc.recovered {
				t.Fatalf("recovery %+v, want the transaction recovered: %v", st, tc.recovered)
			}
			buf := make([]byte, testPayload)
			if _, err := pf.ReadPage(2, buf); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(buf, image(0x42)) != tc.recovered {
				t.Fatalf("page 2 holds %#x…, want the transaction applied: %v", buf[0], tc.recovered)
			}
		})
	}
}

// TestCheckpointOrder: the record is written and synced before the
// header names the next generation, and the header write is synced too.
// The file keeps its length: the next transaction overwrites it in place.
func TestCheckpointOrder(t *testing.T) {
	l, of := openOpLog(t, t.TempDir())
	commit(t, l, page(1, 1))
	of.ops = nil
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "sync", "write", "sync"}; !slices.Equal(of.ops, want) {
		t.Fatalf("checkpoint issued %v, want %v", of.ops, want)
	}
	st, err := of.Stat()
	if err != nil {
		t.Fatal(err)
	}
	full := HeaderSize + PageImageRecordSize(testPayload) + 2*CommitRecordSize
	if l.Size() != HeaderSize || st.Size() != full || l.gen != 1 {
		t.Fatalf("after checkpoint: log %d bytes, file %d, generation %d; want the header alone, the file's %d bytes kept, generation 1",
			l.Size(), st.Size(), l.gen, full)
	}
	if tx := commit(t, l, page(1, 2)); tx != 2 {
		t.Fatalf("first transaction after a checkpoint is %d, want 2", tx)
	}
	if st, err = of.Stat(); err != nil || st.Size() != full {
		t.Fatalf("the next transaction grew the file to %d bytes (%v), want it overwritten in place", st.Size(), err)
	}
}

// TestAppendFailedWriteDirtiesTail: a batch write that fails after landing whole
// records leaves them beyond the append offset; a shorter transaction
// appended next must not leave them in the file to be scanned later.
func TestAppendFailedWriteDirtiesTail(t *testing.T) {
	l, of := openOpLog(t, t.TempDir())
	of.failWrite, of.land = 1, 3*PageImageRecordSize(testPayload)
	_, err := l.Commit([]PageImage{page(1, 0x11), page(2, 0x11), page(3, 0x11), page(4, 0x11)})
	if !errors.Is(err, errInjected) || errors.Is(err, ErrIndeterminate) {
		t.Fatalf("commit: %v, want the injected failure and a clean abort", err)
	}
	if l.Size() != HeaderSize {
		t.Fatalf("append offset moved to %d on a failed write", l.Size())
	}

	// The next transaction is shorter than what landed, and carries none
	// of the failed one's images.
	tx2 := commit(t, l, page(9, 0x22))
	st, err := of.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != l.Size() {
		t.Fatalf("file holds %d bytes, log is %d long: the failed write's records survive past the tail", st.Size(), l.Size())
	}
	var got []Rec
	info, err := l.Scan(func(r Rec) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 2 || info.Torn != 0 || got[0].TxID != tx2 || got[0].Page != 9 || got[1].Type != RecCommit {
		t.Fatalf("scan after the healed write: %+v %+v", info, got)
	}
}

// TestRecoverTornBatch commits one three-image transaction and kills the
// log at every record boundary, one byte either side of each, inside an
// image and inside the commit record. The error is clean while the kill
// point lies in the image write and indeterminate once the commit record's
// write was issued; recovery must yield the pre-transaction pages for every
// offset short of the complete commit record and the post-transaction
// pages from it on — and the same again on a second recovery.
func TestRecoverTornBatch(t *testing.T) {
	rec := PageImageRecordSize(testPayload)
	body := HeaderSize + 3*rec
	end := body + CommitRecordSize
	limits := []int64{HeaderSize + rec/2, body + CommitRecordSize/2, end + 64}
	for _, b := range []int64{HeaderSize, HeaderSize + rec, HeaderSize + 2*rec, body, end} {
		limits = append(limits, b-1, b, b+1)
	}
	for _, limit := range limits {
		dir := t.TempDir()
		pf, pfPath := newPageFile(t, dir, 4)
		pre := make([]byte, testPayload)
		if _, err := pf.ReadPage(1, pre); err != nil {
			t.Fatal(err)
		}
		l, err := Open(filepath.Join(dir, "t.wal"), testPayload, func(f *os.File) File {
			return NewCrashFile(f, limit)
		})
		switch {
		case errors.Is(err, ErrCrash) && limit < HeaderSize:
			// Died writing the header: an empty log, nothing to tear.
		case err != nil:
			t.Fatalf("limit %d: %v", limit, err)
		default:
			_, err = l.Commit([]PageImage{page(1, 0x31), page(2, 0x32), page(3, 0x33)})
			if wantErr := limit < end; (err != nil) != wantErr {
				t.Fatalf("limit %d: commit error %v, want error: %v", limit, err, wantErr)
			}
			// The image write reaches body exactly; a limit there or
			// beyond kills the commit record's write instead.
			if issued := limit >= body && limit < end; errors.Is(err, ErrIndeterminate) != issued {
				t.Fatalf("limit %d: commit error %v, want indeterminate: %v", limit, err, issued)
			}
			l.Close()
		}
		pf.Close()

		for round := 1; round <= 2; round++ {
			pf, err := pager.Open(pfPath)
			if err != nil {
				t.Fatal(err)
			}
			l, err := Open(filepath.Join(dir, "t.wal"), testPayload, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(l, pf); err != nil {
				t.Fatalf("limit %d round %d: %v", limit, round, err)
			}
			buf := make([]byte, testPayload)
			for p := 1; p <= 3; p++ {
				if _, err := pf.ReadPage(pager.PageID(p), buf); err != nil {
					t.Fatal(err)
				}
				want := pre
				if limit >= end {
					want = image(byte(0x30 + p))
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("limit %d round %d: page %d holds %#x…, want %#x…", limit, round, p, buf[0], want[0])
				}
			}
			l.Close()
			pf.Close()
		}
	}
}
