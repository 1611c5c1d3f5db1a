package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"testing"

	"spatialdom/internal/pager"
)

// floats is a tree-node page whose payload opens with vs as little-endian
// float64s and is zero after them.
func floats(id pager.PageID, vs ...float64) PageImage {
	im := PageImage{ID: id, Type: pager.PageTreeNode, Data: make([]byte, testPayload)}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(im.Data[8*i:], math.Float64bits(v))
	}
	return im
}

// TestWALImageEdgeCases logs one page of each shape a zero tail can take
// and replays it over a page whose every byte is 0xee: the record holds
// the page up to its last non-zero byte, the scan hands out exactly that
// prefix, and the replayed page is the logged page, its old tail bytes
// zero again.
func TestWALImageEdgeCases(t *testing.T) {
	oneByte := floats(1)
	oneByte.Data[100] = 0x01 // the last non-zero byte sits inside a word
	for _, tc := range []struct {
		name   string
		im     PageImage
		logged int // image bytes the record holds
	}{
		{"all zero", floats(1), 0},
		{"no zero tail", page(1, 0x5a), testPayload},
		{"last float 0.0", floats(1, 1.5, -2.25, 0), 16},
		{"last float -0.0", floats(1, 1.5, math.Copysign(0, -1)), 16},
		{"last byte mid-word", oneByte, 101},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pf, pfPath := newPageFile(t, dir, 2)
			junk := bytes.Repeat([]byte{0xee}, testPayload)
			if err := pf.WritePage(1, junk, pager.PageStoreData); err != nil {
				t.Fatal(err)
			}
			l := openTestLog(t, dir)
			commit(t, l, tc.im)
			if want := HeaderSize + PageImageRecordSize(tc.logged) + CommitRecordSize; l.Size() != want {
				t.Fatalf("log of %d bytes, want %d: a %d-byte image", l.Size(), want, tc.logged)
			}
			raw, err := os.ReadFile(l.Path())
			if err != nil {
				t.Fatal(err)
			}
			if plen := le32(raw[HeaderSize+9:]); plen != uint32(5+tc.logged) {
				t.Fatalf("plen %d, want %d", plen, 5+tc.logged)
			}
			var got []byte
			if _, err := l.Scan(func(r Rec) error {
				if r.Type == RecPageImage {
					got = append([]byte(nil), r.Image...)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.im.Data[:tc.logged]) {
				t.Fatalf("scan handed out %d bytes, want the page's first %d", len(got), tc.logged)
			}
			if _, err := Recover(l, pf); err != nil {
				t.Fatal(err)
			}
			pf.Close()
			pf, err = pager.Open(pfPath)
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()
			buf := make([]byte, testPayload)
			pt, err := pf.ReadPage(1, buf)
			if err != nil {
				t.Fatal(err)
			}
			if pt != tc.im.Type || !bytes.Equal(buf, tc.im.Data) {
				t.Fatalf("replayed page (%s) differs from the logged one: % x", pt, buf)
			}
		})
	}
}

// TestWALHugeHeaderAllocatesWhatTheFileBacks: a log whose header declares
// 4 GiB pages, over records of 256-byte pages, reads like any other. No
// reader sizes a buffer by the declared payload: Pending, ScanFile and
// Recover each allocate a small multiple of the file, nowhere near a page.
func TestWALHugeHeaderAllocatesWhatTheFileBacks(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	commit(t, l, page(1, 0x11), floats(2, 3.5))
	commit(t, l, page(1, 0x13))
	l.Close()
	raw, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], math.MaxUint32)
	if err := os.WriteFile(l.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const bound = 1 << 20
	allocated := func(what string, fn func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > bound {
			t.Fatalf("%s allocated %d bytes over a %d-byte log", what, n, len(raw))
		}
	}

	allocated("Pending", func() {
		if pending, err := Pending(l.Path()); err != nil || !pending {
			t.Fatalf("Pending: %v, %v", pending, err)
		}
	})
	allocated("ScanFile", func() {
		info, declared, err := ScanFile(l.Path(), 0, nil)
		if err != nil || info.Records != 5 || info.Torn+info.Stale != 0 || declared != math.MaxUint32 {
			t.Fatalf("ScanFile: %+v, payload %d, %v", info, declared, err)
		}
	})
	pf, pfPath := newPageFile(t, dir, 2)
	huge, err := Open(l.Path(), math.MaxUint32, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer huge.Close()
	allocated("Recover", func() {
		if st, err := Recover(huge, pf); err != nil || st.PagesApplied != 3 {
			t.Fatalf("Recover: %+v, %v", st, err)
		}
	})
	pf.Close()
	pagesHold(t, pfPath, "after the replay", 0x13)
	pf, err = pager.Open(pfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, testPayload)
	if _, err := pf.ReadPage(2, buf); err != nil || !bytes.Equal(buf, floats(2, 3.5).Data) {
		t.Fatalf("page 2 after the replay: % x, %v", buf, err)
	}
}
