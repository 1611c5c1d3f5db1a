package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialdom/internal/pager"
)

// TestScanSeedOfInvertsTheSeed: the generation a record's CRC was seeded with
// is recovered from the record alone, whatever generation the reader is
// in — the scan's test for bytes an older generation left.
func TestScanSeedOfInvertsTheSeed(t *testing.T) {
	var top [256]bool
	for _, v := range castagnoli {
		top[v>>24] = true
	}
	for i, ok := range top {
		if !ok {
			t.Fatalf("no table entry has top byte %#x: a zero-byte step would not run back", i)
		}
	}
	for _, written := range []uint32{0, 1, 7, 0x01ffffff, 0xfffffffe} {
		for _, reader := range []uint32{0, 3, 0x02000000} {
			for _, rec := range [][]byte{
				appendRecord(nil, written, RecPageImage, 9, page(4, 0x5a)),
				appendRecord(nil, written, RecCommit, 9, PageImage{}),
			} {
				n := len(rec) - crcSize
				crc := crc32.Update(reader, castagnoli, rec[:n])
				if got := seedOf(le32(rec[n:]), crc, reader, n); got != written {
					t.Fatalf("record of generation %#x read in %#x: seedOf says %#x", written, reader, got)
				}
			}
		}
	}
}

// olderGeneration fills a log the way an index leaves it before a
// checkpoint: tx1 writes pages 1 and 2, tx2 page 1 again, and the page
// file durably holds both.
func olderGeneration(t *testing.T, l *Log, pf *pager.PageFile) {
	t.Helper()
	commit(t, l, page(1, 0x11), page(2, 0x12))
	commit(t, l, page(1, 0x13))
	for _, im := range []PageImage{page(2, 0x12), page(1, 0x13)} {
		if err := pf.WritePage(im.ID, im.Data, im.Type); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
}

// pagesHold fails unless pages 1 and 2 of the page file at path hold the
// fills want.
func pagesHold(t *testing.T, pfPath string, what string, want ...byte) {
	t.Helper()
	pf, err := pager.Open(pfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, testPayload)
	for i, fill := range want {
		if _, err := pf.ReadPage(pager.PageID(i+1), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, image(fill)) {
			t.Fatalf("%s: page %d holds %#x…, want %#x…", what, i+1, buf[0], fill)
		}
	}
}

// recoverTwice runs recovery on the files in dir twice, the second time
// over what the first left.
func recoverTwice(t *testing.T, dir, pfPath string) {
	t.Helper()
	for round := 0; round < 2; round++ {
		pf, err := pager.Open(pfPath)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(filepath.Join(dir, "t.wal"), testPayload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(l, pf); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		l.Close()
		pf.Close()
	}
}

// TestRecoverOverOlderGeneration kills a transaction of a recycled log's
// new generation at every record boundary, one byte either side, and
// inside every record. In the boundary case the transaction is as long as
// the older generation's first, so it ends exactly where the older tx2 —
// whole, valid under its own generation, rewriting page 1 — begins; in the
// inside case it ends inside the older tx1's second image. Recovery must
// yield the checkpointed pages short of the commit record and the new
// transaction's from it on, never tx2's page 1 over them.
func TestRecoverOverOlderGeneration(t *testing.T) {
	rec := PageImageRecordSize(testPayload)
	tx1 := 2*rec + CommitRecordSize // the older generation's first transaction
	for _, tc := range []struct {
		name   string
		images []PageImage
		post   []byte // pages 1 and 2 once the transaction is in
	}{
		{"ends on an older record's boundary", []PageImage{page(1, 0x21), page(2, 0x22)}, []byte{0x21, 0x22}},
		{"ends inside an older record", []PageImage{page(1, 0x21)}, []byte{0x21, 0x12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := int64(len(tc.images)) * rec
			end := body + CommitRecordSize
			if onBoundary := len(tc.images) == 2; (end == tx1) != onBoundary || end > tx1 || (!onBoundary && end%rec == 0) {
				t.Fatalf("a %d-byte transaction against a %d-byte older one: the test lost its premise", end, tx1)
			}
			budgets := []int64{rec / 2, body + CommitRecordSize/2, end + 64}
			for b := int64(0); b <= body; b += rec {
				budgets = append(budgets, max(b-1, 0), b, b+1)
			}
			budgets = append(budgets, end-1, end, end+1)
			for _, budget := range budgets {
				dir := t.TempDir()
				pf, pfPath := newPageFile(t, dir, 3)
				var cf *CrashFile
				l, err := Open(filepath.Join(dir, "t.wal"), testPayload, func(f *os.File) File {
					cf = NewCrashFile(f, 1<<30)
					return cf
				})
				if err != nil {
					t.Fatal(err)
				}
				olderGeneration(t, l, pf)
				pf.Close()
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				cf.budget = budget
				_, err = l.Commit(tc.images)
				if (err != nil) != (budget < end) {
					t.Fatalf("budget %d: commit error %v", budget, err)
				}
				info, err := l.Scan(nil)
				if err != nil {
					t.Fatal(err)
				}
				if budget >= end {
					if info.Stale == 0 || info.Torn != 0 {
						t.Fatalf("budget %d: scan %+v, want the older generation's bytes past the transaction", budget, info)
					}
				}
				l.Close()

				recoverTwice(t, dir, pfPath)
				want := []byte{0x13, 0x12}
				if budget >= end {
					want = tc.post
				}
				pagesHold(t, pfPath, fmt.Sprintf("budget %d", budget), want...)
			}
		})
	}
}

// TestCheckpointHeaderTorn kills a checkpoint at every byte of its header
// write, from a generation whose increment carries through all four bytes.
// The header must name the old generation or one at least the new — never
// one whose records could still be in the file — and recovery, then a new
// transaction killed after its commit, must yield exactly the checkpointed
// pages with that transaction over them.
func TestCheckpointHeaderTorn(t *testing.T) {
	const old = 0x01ffffff
	for k := int64(0); k <= headerSize; k++ {
		dir := t.TempDir()
		pf, pfPath := newPageFile(t, dir, 3)
		var cf *CrashFile
		l, err := Open(filepath.Join(dir, "t.wal"), testPayload, func(f *os.File) File {
			cf = NewCrashFile(f, 1<<30)
			return cf
		})
		if err != nil {
			t.Fatal(err)
		}
		l.gen = old
		if err := l.writeHeader(); err != nil {
			t.Fatal(err)
		}
		olderGeneration(t, l, pf)
		pf.Close()
		cf.budget = CommitRecordSize + k
		if err := l.Checkpoint(); (err == nil) != (k == headerSize) {
			t.Fatalf("header byte %d: checkpoint %v", k, err)
		}
		l.Close()

		raw, err := os.ReadFile(filepath.Join(dir, "t.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if g := binary.BigEndian.Uint32(raw[12:16]); g != old && g <= old {
			t.Fatalf("header byte %d: torn header names generation %#x, older than %#x", k, g, uint32(old))
		}
		recoverTwice(t, dir, pfPath)
		pagesHold(t, pfPath, "after the torn checkpoint", 0x13, 0x12)

		l, err = Open(filepath.Join(dir, "t.wal"), testPayload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.gen <= old {
			t.Fatalf("header byte %d: recovery left generation %#x", k, l.gen)
		}
		// Recovery left the log reset: the commit overwrites the older
		// records in place, and is as long as the older tx1.
		commit(t, l, page(1, 0x21), page(2, 0x22))
		l.Close()
		recoverTwice(t, dir, pfPath)
		pagesHold(t, pfPath, "after the next transaction", 0x21, 0x22)
	}
}

// TestDumpFileLabelsTail: wal-dump names the version and the generation,
// prints each image's logged length, and tells bytes an older generation
// left from a torn append.
func TestDumpFileLabelsTail(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	commit(t, l, page(1, 1), page(2, 2))
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The older generation: two whole pages, a commit and a checkpoint.
	size := HeaderSize + 2*PageImageRecordSize(testPayload) + 2*CommitRecordSize
	im := page(3, 3)
	clear(im.Data[100:])
	commit(t, l, im)
	end := HeaderSize + imageRecordSize(im) + CommitRecordSize
	dump := func() string {
		var out strings.Builder
		if err := DumpFile(l.Path(), 0, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := fmt.Sprintf("%s: wal v3, generation 1, page payload 256, %d bytes\n"+
		"  @16       tx 2      page-image  page 3 (tree-node), 100 bytes logged\n"+
		"  @%-8d tx 2      commit\n"+
		"  2 records, valid through %d, then %d bytes of older generations\n",
		l.Path(), size, HeaderSize+imageRecordSize(im), end, size-end)
	if d := dump(); d != want {
		t.Fatalf("recycled log:\n%s\nwant\n%s", d, want)
	}

	// The next transaction dies inside its image: a torn append over the
	// older generation's bytes.
	f, err := os.OpenFile(l.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	torn := appendRecord(nil, l.gen, RecPageImage, 2, page(4, 4))
	if _, err := f.WriteAt(torn[:40], l.Size()); err != nil {
		t.Fatal(err)
	}
	if d := dump(); !strings.Contains(d, "TORN TAIL") || strings.Contains(d, "older generations") {
		t.Fatalf("torn append over a recycled log:\n%s", d)
	}
	info, _, err := ScanFile(l.Path(), 0, nil)
	if err != nil || info.Records != 2 || info.Stale != 0 || info.Torn == 0 {
		t.Fatalf("scan of the torn append: %+v, %v", info, err)
	}
}
