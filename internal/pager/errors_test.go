package pager

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCreateInUnwritableDir(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "x.pg"), 128); err == nil {
		t.Fatal("create in missing directory accepted")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.pg")); err == nil {
		t.Fatal("open of missing file accepted")
	}
}

func TestOpenTruncatedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.pg")
	if err := os.WriteFile(path, []byte("SD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestWritePageErrors(t *testing.T) {
	pf := newFile(t, 128)
	if err := pf.WritePage(InvalidPage, make([]byte, pf.PageSize()), PageUnknown); !errors.Is(err, ErrPageRange) {
		t.Fatalf("invalid page: %v", err)
	}
	if err := pf.WritePage(42, make([]byte, pf.PageSize()), PageUnknown); !errors.Is(err, ErrPageRange) {
		t.Fatalf("oob page: %v", err)
	}
	id, _ := pf.Allocate(PageUnknown)
	if err := pf.WritePage(id, make([]byte, 3), PageUnknown); err == nil {
		t.Fatal("short buffer accepted")
	}
	pf.Close()
	if err := pf.WritePage(id, make([]byte, 120), PageUnknown); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := pf.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestPoolCapacityClamp(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 0) // clamps to 1
	if pool.File() != pf {
		t.Fatal("File accessor wrong")
	}
	id, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
	// Capacity-1 pool still serves sequential access.
	id2, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id2)
	if _, err := pool.Get(id); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
}

func TestPoolGetMissingPage(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 2)
	if _, err := pool.Get(77); err == nil {
		t.Fatal("get of unallocated page accepted")
	}
	// The pool must still be usable after the failed Get.
	id, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
}

func TestMarkDirtyUnknownPage(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 2)
	pool.markDirty(99) // no-op, must not panic
	pool.Unpin(99)     // same
}
