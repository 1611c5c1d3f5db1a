package pager

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to the page-file opener: it must reject
// or accept without panicking, and an accepted file must serve reads
// within its declared bounds without panicking — and serve no page whose
// bytes do not match the checksum in its own trailer.
func FuzzOpen(f *testing.F) {
	// Seed with a genuine header.
	dir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	pf, err := Create(filepath.Join(dir, "seed.pg"), 128)
	if err != nil {
		f.Fatal(err)
	}
	pf.Allocate(PageUnknown)
	pf.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "seed.pg"))
	if err != nil {
		f.Fatal(err)
	}
	os.RemoveAll(dir)
	f.Add(raw)
	downgraded := append([]byte(nil), raw...)
	downgraded[12] = 0 // once "format v0": every page verified trivially
	f.Add(downgraded)
	f.Add([]byte("SDPG"))
	f.Add([]byte{})
	f.Add([]byte("SDPGxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.pg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pf, err := Open(path)
		if err != nil {
			return
		}
		defer pf.Close()
		// Declared geometry may exceed the physical file; reads must fail
		// gracefully, never panic.
		if pf.PageSize() <= 0 {
			t.Fatal("accepted non-positive page size")
		}
		if pf.PageSize() > 1<<20 {
			return // absurd but harmless; skip the read probe
		}
		buf := make([]byte, pf.PageSize())
		ps := pf.PhysicalPageSize()
		for id := PageID(1); int(id) <= pf.Len() && id < 4; id++ {
			if _, err := pf.ReadPage(id, buf); err != nil {
				continue
			}
			phys := data[int(id)*ps : (int(id)+1)*ps]
			tr := phys[len(buf):]
			if pageCRC(phys[:len(buf)], tr[4], tr[5]) != le32(tr[:4]) {
				t.Fatalf("page %d was served without a matching checksum", id)
			}
		}
	})
}
