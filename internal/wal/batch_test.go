package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spatialdom/internal/pager"
)

// countingFile counts the writes that reach the log's file.
type countingFile struct {
	*os.File
	writes int
}

func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	return c.File.WriteAt(p, off)
}

// TestAppendCommitIsTwoWrites pins the write path's shape: however many images a
// transaction has, they reach the file in one write and the commit record
// in a second, and nothing is written before FlushImages.
func TestAppendCommitIsTwoWrites(t *testing.T) {
	var cf *countingFile
	l, err := Open(filepath.Join(t.TempDir(), "t.wal"), testPayload, func(f *os.File) File {
		cf = &countingFile{File: f}
		return cf
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cf.writes = 0 // the header
	tx := l.NextTx()
	for i := 0; i < 5; i++ {
		if err := l.AppendPageImage(tx, pager.PageID(i+1), pager.PageTreeNode, image(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if cf.writes != 0 || l.Size() != HeaderSize {
		t.Fatalf("images reached the file before the flush: %d writes, size %d", cf.writes, l.Size())
	}
	if err := l.FlushImages(); err != nil {
		t.Fatal(err)
	}
	if cf.writes != 1 || l.Size() != HeaderSize+5*PageImageRecordSize(testPayload) {
		t.Fatalf("after flush: %d writes, size %d", cf.writes, l.Size())
	}
	if err := l.AppendCommit(tx); err != nil {
		t.Fatal(err)
	}
	if cf.writes != 2 {
		t.Fatalf("commit took %d writes in all, want 2", cf.writes)
	}
	info, err := l.Scan(nil)
	if err != nil || info.Records != 6 || info.Torn != 0 {
		t.Fatalf("scan: %+v, %v", info, err)
	}
}

// flakyFile fails one write after landing a prefix of it, then heals.
type flakyFile struct {
	*os.File
	failNext bool
	land     int64 // bytes of the failing write that still reach the file
}

var errFlaky = errors.New("injected write failure")

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.failNext {
		f.failNext = false
		n, _ := f.File.WriteAt(p[:f.land], off)
		return n, errFlaky
	}
	return f.File.WriteAt(p, off)
}

// TestAppendFailedWriteDirtiesTail: a batch write that fails after landing whole
// records leaves them beyond the append offset; a shorter transaction
// appended next must not leave them in the file to be scanned later.
func TestAppendFailedWriteDirtiesTail(t *testing.T) {
	var ff *flakyFile
	l, err := Open(filepath.Join(t.TempDir(), "t.wal"), testPayload, func(f *os.File) File {
		ff = &flakyFile{File: f}
		return ff
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tx1 := l.NextTx()
	for i := 0; i < 4; i++ {
		if err := l.AppendPageImage(tx1, pager.PageID(i+1), pager.PageTreeNode, image(0x11)); err != nil {
			t.Fatal(err)
		}
	}
	ff.failNext, ff.land = true, 3*PageImageRecordSize(testPayload)
	if err := l.FlushImages(); !errors.Is(err, errFlaky) {
		t.Fatalf("flush: %v, want the injected failure", err)
	}
	if l.Size() != HeaderSize {
		t.Fatalf("append offset moved to %d on a failed write", l.Size())
	}

	// The next transaction is shorter than what landed, and carries none
	// of the failed one's images.
	tx2 := l.NextTx()
	if err := l.AppendPageImage(tx2, 9, pager.PageTreeNode, image(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(tx2); err != nil {
		t.Fatal(err)
	}
	st, err := ff.Stat()
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

// TestRecoverTornBatch writes one three-image transaction as a batch and kills
// the log at every record boundary, one byte either side of each, inside
// an image and inside the commit record. Recovery must yield the
// pre-transaction pages for every offset short of the complete commit
// record and the post-transaction pages from it on — and the same again on
// a second recovery.
func TestRecoverTornBatch(t *testing.T) {
	rec := PageImageRecordSize(testPayload)
	end := HeaderSize + 3*rec + CommitRecordSize
	limits := []int64{HeaderSize + rec/2, HeaderSize + 3*rec + CommitRecordSize/2, end + 64}
	for _, b := range []int64{HeaderSize, HeaderSize + rec, HeaderSize + 2*rec, HeaderSize + 3*rec, end} {
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
			tx := l.NextTx()
			for p := 1; p <= 3; p++ {
				if err := l.AppendPageImage(tx, pager.PageID(p), pager.PageTreeNode, image(byte(0x30+p))); err != nil {
					t.Fatal(err)
				}
			}
			err = l.FlushImages()
			if err == nil {
				err = l.AppendCommit(tx)
			}
			if wantErr := limit < end; (err != nil) != wantErr {
				t.Fatalf("limit %d: commit error %v, want error: %v", limit, err, wantErr)
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
