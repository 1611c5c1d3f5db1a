package wal

import (
	"os"
	"path/filepath"
	"testing"

	"spatialdom/internal/pager"
)

// FuzzScan feeds arbitrary bytes to the record scanner as a log file —
// bytes another process (or a crash) wrote. It must never panic, never
// deliver a record that does not lie whole inside the file (so no buffer
// is sized by a length the file does not back), never hand out an image
// longer than the page payload the header declares — a shorter one is a
// logged prefix, the rest of its page implied zeros — and account for
// every byte: valid prefix plus a torn tail or an older generation's bytes
// is the file.
func FuzzScan(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(filepath.Join(dir, "seed.wal"), testPayload, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, images := range [][]PageImage{
		{{ID: 3, Type: pager.PageTreeNode, Data: image(0xaa)}},
		{{ID: 7, Type: pager.PageStoreData, Data: image(0xbb)}, {ID: 9, Type: pager.PageSuper, Data: image(0xcc)}},
	} {
		if _, err := l.Commit(images); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)                                    // two committed transactions
	f.Add(raw[:len(raw)-int(CommitRecordSize)-7]) // the second one torn inside its last image
	huge := append([]byte(nil), raw...)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0xff // header declares 4 GiB pages
	f.Add(huge)
	f.Add(raw[:headerSize])
	f.Add([]byte(walMagic))

	// Trimmed records: an all-zero page, pages with zero tails of several
	// lengths, one with none.
	tl, err := Open(filepath.Join(dir, "trimmed.wal"), testPayload, nil)
	if err != nil {
		f.Fatal(err)
	}
	tailed := func(id pager.PageID, fill byte, n int) PageImage {
		im := page(id, fill)
		clear(im.Data[n:])
		return im
	}
	if _, err := tl.Commit([]PageImage{tailed(1, 0x11, 0), tailed(2, 0x22, 1), tailed(3, 0x33, 100), page(4, 0x44)}); err != nil {
		f.Fatal(err)
	}
	if _, err := tl.Commit([]PageImage{tailed(5, 0x55, 255)}); err != nil {
		f.Fatal(err)
	}
	tl.Close()
	trimmed, err := os.ReadFile(filepath.Join(dir, "trimmed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trimmed)
	trimmedHuge := append([]byte(nil), trimmed...)
	copy(trimmedHuge[8:12], huge[8:12])
	f.Add(trimmedHuge) // prefixes far shorter than the 4 GiB pages declared

	// Two generations, the newer one shorter: a recycled log whose older
	// records lie past the current generation's end.
	r, err := Open(filepath.Join(dir, "recycled.wal"), testPayload, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, images := range [][]PageImage{
		{{ID: 3, Type: pager.PageTreeNode, Data: image(0xaa)}, {ID: 4, Type: pager.PageTreeNode, Data: image(0xab)}},
		nil,
		{{ID: 7, Type: pager.PageStoreData, Data: image(0xbb)}},
	} {
		if images == nil {
			err = r.Checkpoint()
		} else {
			_, err = r.Commit(images)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	r.Close()
	recycled, err := os.ReadFile(filepath.Join(dir, "recycled.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recycled)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		delivered, end := 0, HeaderSize
		var imageLens []int
		info, declared, err := ScanFile(path, 0, func(r Rec) error {
			if r.Off != end {
				t.Fatalf("record at %d does not follow the previous one's end %d", r.Off, end)
			}
			end = r.Off + CommitRecordSize
			if r.Type == RecPageImage {
				end += int64(5 + len(r.Image))
				imageLens = append(imageLens, len(r.Image))
			}
			if end > size {
				t.Fatalf("record at %d runs to %d, past the file's %d bytes", r.Off, end, size)
			}
			delivered++
			return nil
		})
		if err != nil {
			return // not a log at all
		}
		if size < HeaderSize {
			if delivered != 0 || info.Records != 0 {
				t.Fatalf("%d records out of a %d-byte file", delivered, size)
			}
			return
		}
		if info.Records != delivered || info.End != end || info.End+info.Torn+info.Stale != size || (info.Torn > 0 && info.Stale > 0) {
			t.Fatalf("scan info %+v after %d records ending at %d in %d bytes", info, delivered, end, size)
		}
		for _, n := range imageLens {
			if n > declared {
				t.Fatalf("image of %d bytes from a log declaring %d-byte pages", n, declared)
			}
		}
	})
}
