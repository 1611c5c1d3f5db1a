package spatialdom

import (
	"context"
	"path/filepath"
	"sort"
	"testing"
)

func TestDiskIndexFacade(t *testing.T) {
	ds := GenerateDataset(DatasetParams{N: 80, M: 5, Seed: 91})
	path := filepath.Join(t.TempDir(), "facade.pg")
	disk, err := BuildDiskIndex(path, ds.Objects, 64)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Len() != 80 || disk.Dim() != 3 {
		t.Fatalf("metadata: %d, %d", disk.Len(), disk.Dim())
	}
	mem, err := NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 4, 200, 92)[0]
	want := mem.Search(q, SSSD).IDs()
	res, err := disk.Search(q, SSSD)
	if err != nil {
		t.Fatal(err)
	}
	got := res.IDs()
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("disk %v != memory %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("disk %v != memory %v", got, want)
		}
	}
	resK, err := disk.SearchKCtx(context.Background(), q, SSSD, 2, SearchOptions{Filters: AllFilters})
	if err != nil {
		t.Fatal(err)
	}
	if len(resK.Candidates) < len(res.Candidates) {
		t.Fatal("2-band smaller than skyline")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk alone.
	disk2, err := OpenDiskIndex(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	res2, err := disk2.Search(q, SSSD)
	if err != nil {
		t.Fatal(err)
	}
	got2 := res2.IDs()
	sort.Ints(got2)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("reopened disk %v != memory %v", got2, want)
		}
	}
	if res2.IO.Hits+res2.IO.Misses == 0 {
		t.Fatal("no I/O recorded")
	}

	if _, err := OpenDiskIndex(filepath.Join(t.TempDir(), "missing.pg"), 8); err == nil {
		t.Fatal("missing file accepted")
	}
}
