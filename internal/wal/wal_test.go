package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialdom/internal/pager"
)

const testPayload = 256

func openTestLog(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(filepath.Join(dir, "t.wal"), testPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func image(fill byte) []byte {
	img := make([]byte, testPayload)
	for i := range img {
		img[i] = fill
	}
	return img
}

// imageRecordSize is the size of the record that logs im: its page up to
// the last non-zero byte.
func imageRecordSize(im PageImage) int64 {
	return PageImageRecordSize(len(bytes.TrimRight(im.Data, "\x00")))
}

// page is one tree-node page image filled with fill.
func page(id pager.PageID, fill byte) PageImage {
	return PageImage{ID: id, Type: pager.PageTreeNode, Data: image(fill)}
}

// commit logs one transaction and returns its id.
func commit(t *testing.T, l *Log, images ...PageImage) uint64 {
	t.Helper()
	tx, err := l.Commit(images)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// checkpointRecord appends a checkpoint record without the reset
// Checkpoint follows it with, so a scan can still see it.
func checkpointRecord(t *testing.T, l *Log) {
	t.Helper()
	if err := l.write(appendRecord(nil, l.gen, RecCheckpoint, l.lastTx, PageImage{})); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	tx := commit(t, l, page(3, 0xaa), PageImage{ID: 7, Type: pager.PageStoreData, Data: image(0xbb)})
	checkpointRecord(t, l)

	var recs []Rec
	var images [][]byte
	info, err := l.Scan(func(r Rec) error {
		recs = append(recs, r)
		if r.Type == RecPageImage {
			images = append(images, append([]byte(nil), r.Image...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 || info.Torn != 0 {
		t.Fatalf("scan info %+v", info)
	}
	if info.End != l.Size() {
		t.Fatalf("scan end %d != log size %d", info.End, l.Size())
	}
	wantTypes := []byte{RecPageImage, RecPageImage, RecCommit, RecCheckpoint}
	for i, r := range recs {
		if r.Type != wantTypes[i] || r.TxID != tx {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if recs[0].Page != 3 || recs[0].PType != pager.PageTreeNode {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if !bytes.Equal(images[0], image(0xaa)) || !bytes.Equal(images[1], image(0xbb)) {
		t.Fatal("image payloads corrupted in roundtrip")
	}

	// Size arithmetic matches the documented record grammar.
	want := HeaderSize + 2*PageImageRecordSize(testPayload) + 2*CommitRecordSize
	if l.Size() != want {
		t.Fatalf("size %d, want %d", l.Size(), want)
	}
}

func TestOpenRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	l, err := Open(path, testPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	if _, err := Open(path, testPayload*2, nil); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("payload mismatch: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[4] = Version + 1
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testPayload, nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
	copy(bad, "XXXX")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testPayload, nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
}

// corruptAt flips one byte of the log file.
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestScanStopsAtCorruption(t *testing.T) {
	writeTwo := func(t *testing.T) (string, *Log) {
		dir := t.TempDir()
		l := openTestLog(t, dir)
		commit(t, l, page(3, 1))
		commit(t, l, page(4, 2))
		return l.Path(), l
	}

	rec1 := PageImageRecordSize(testPayload)
	cases := []struct {
		name string
		off  func(size int64) int64 // byte to flip
		want int                    // records surviving
	}{
		{"payload-of-first-image", func(int64) int64 { return HeaderSize + recHeaderSize + 40 }, 0},
		{"crc-of-first-commit", func(int64) int64 { return HeaderSize + rec1 + CommitRecordSize - 1 }, 1},
		{"type-of-second-image", func(int64) int64 { return HeaderSize + rec1 + CommitRecordSize }, 2},
		{"last-byte", func(size int64) int64 { return size - 1 }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, l := writeTwo(t)
			size := l.Size()
			l.Close()
			corruptAt(t, path, tc.off(size))
			l2, err := Open(path, testPayload, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			info, err := l2.Scan(nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Records != tc.want {
				t.Fatalf("records = %d, want %d (info %+v)", info.Records, tc.want, info)
			}
			if info.Torn == 0 {
				t.Fatal("corruption not reported as torn tail")
			}
			// Appends after the scan overwrite the torn tail.
			commit(t, l2, page(9, 9))
			info2, err := l2.Scan(nil)
			if err != nil {
				t.Fatal(err)
			}
			if info2.Records != tc.want+2 {
				t.Fatalf("after overwrite: %d records, want %d", info2.Records, tc.want+2)
			}
		})
	}
}

func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	commit(t, l, page(3, 1))
	path := l.Path()
	full := l.Size()
	l.Close()

	// Cut the file mid-commit-record: the page image survives, the commit
	// is torn.
	if err := os.Truncate(path, full-2); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, testPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	info, err := l2.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.Torn != CommitRecordSize-2 {
		t.Fatalf("info %+v", info)
	}
}

// newPageFile creates a page file with n data pages of the test payload
// (physical page = payload + the pager's 8-byte integrity trailer).
func newPageFile(t *testing.T, dir string, pages int) (*pager.PageFile, string) {
	t.Helper()
	path := filepath.Join(dir, "t.pg")
	pf, err := pager.Create(path, testPayload+8)
	if err != nil {
		t.Fatal(err)
	}
	if pf.PageSize() != testPayload {
		t.Fatalf("page payload %d, want %d", pf.PageSize(), testPayload)
	}
	for i := 0; i < pages; i++ {
		if _, err := pf.Allocate(pager.PageTreeNode); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	return pf, path
}

func TestRecoverAppliesOnlyCommitted(t *testing.T) {
	dir := t.TempDir()
	pf, _ := newPageFile(t, dir, 3)
	defer pf.Close()
	l, of := openOpLog(t, dir)

	// tx1 commits; tx2's images land but its commit record's write fails.
	commit(t, l, page(1, 0x11))
	of.failWrite = 2
	if _, err := l.Commit([]PageImage{page(2, 0x22)}); !errors.Is(err, ErrIndeterminate) || !errors.Is(err, errInjected) {
		t.Fatalf("commit over a failing commit-record write: %v", err)
	}

	st, err := Recover(l, pf)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedTxs != 1 || st.PagesApplied != 1 || st.DroppedTxs != 1 {
		t.Fatalf("stats %+v", st)
	}
	buf := make([]byte, testPayload)
	if _, err := pf.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, image(0x11)) {
		t.Fatal("committed image not applied")
	}
	if _, err := pf.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, image(0x22)) {
		t.Fatal("uncommitted image applied")
	}
	if l.Size() != HeaderSize {
		t.Fatalf("log not reset: size %d", l.Size())
	}
}

func TestRecoverGrowsPageFile(t *testing.T) {
	dir := t.TempDir()
	pf, _ := newPageFile(t, dir, 1)
	defer pf.Close()
	l := openTestLog(t, dir)
	commit(t, l, PageImage{ID: 5, Type: pager.PageStoreData, Data: image(0x55)})
	if _, err := Recover(l, pf); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testPayload)
	pt, err := pf.ReadPage(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if pt != pager.PageStoreData || !bytes.Equal(buf, image(0x55)) {
		t.Fatal("grown page not applied")
	}
}

func TestRecoverLastCommittedWins(t *testing.T) {
	dir := t.TempDir()
	pf, _ := newPageFile(t, dir, 3)
	defer pf.Close()
	l, of := openOpLog(t, dir)
	for i, fill := range []byte{0x0a, 0x0b, 0x0c} {
		if i == 1 { // the middle tx's commit record never lands
			of.failWrite = 2
		}
		if _, err := l.Commit([]PageImage{page(2, fill)}); (err != nil) != (i == 1) {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	st, err := Recover(l, pf)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedTxs != 2 || st.DroppedTxs != 1 {
		t.Fatalf("stats %+v", st)
	}
	buf := make([]byte, testPayload)
	if _, err := pf.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, image(0x0c)) {
		t.Fatal("latest committed image did not win")
	}
}

func TestCrashFileTearsWrites(t *testing.T) {
	dir := t.TempDir()
	limit := HeaderSize + PageImageRecordSize(testPayload) + 5
	var cf *CrashFile
	l, err := Open(filepath.Join(dir, "t.wal"), testPayload, func(f *os.File) File {
		cf = NewCrashFile(f, limit)
		return cf
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The commit record crosses the limit: torn.
	if _, err := l.Commit([]PageImage{page(1, 1)}); !errors.Is(err, ErrCrash) || !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("commit past limit: %v", err)
	}
	if !cf.Crashed() {
		t.Fatal("crash did not fire")
	}
	// Everything after the crash fails too.
	if _, err := l.Commit([]PageImage{page(1, 1)}); !errors.Is(err, ErrCrash) {
		t.Fatalf("commit after crash: %v", err)
	}
	if err := cf.Sync(); !errors.Is(err, ErrCrash) {
		t.Fatalf("sync after crash: %v", err)
	}
	if err := cf.Truncate(0); !errors.Is(err, ErrCrash) {
		t.Fatalf("truncate after crash: %v", err)
	}
	st, err := cf.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != limit {
		t.Fatalf("file grew to %d, limit %d", st.Size(), limit)
	}

	// A fresh open of the torn log sees the image but not the commit.
	l2, err := Open(l.Path(), testPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	info, err := l2.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.Torn != 5 {
		t.Fatalf("info %+v", info)
	}
}

func TestDumpFile(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	commit(t, l, page(3, 1))
	checkpointRecord(t, l)
	path := l.Path()
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := DumpFile(path, 0, &out); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	for _, want := range []string{"page-image", "commit", "checkpoint", "3 records"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "TORN") {
		t.Fatalf("clean log reported torn:\n%s", dump)
	}

	// Tear the tail; the dump must report it and leave the file alone.
	if err := os.Truncate(path, size-1); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := DumpFile(path, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TORN TAIL") {
		t.Fatalf("torn log not reported:\n%s", out.String())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size-1 {
		t.Fatal("dump mutated the log file")
	}
}
