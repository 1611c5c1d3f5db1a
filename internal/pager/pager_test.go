package pager

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func newFile(t *testing.T, pageSize int) *PageFile {
	t.Helper()
	pf, err := Create(filepath.Join(t.TempDir(), "test.pg"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestCreateRejectsTinyPages(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x.pg"), 16); err == nil {
		t.Fatal("tiny page size accepted")
	}
}

func TestAllocateReadWrite(t *testing.T) {
	pf := newFile(t, 128)
	id1, err := pf.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := pf.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == InvalidPage || id2 == id1 {
		t.Fatalf("bad ids %d, %d", id1, id2)
	}
	if pf.Len() != 2 {
		t.Fatalf("Len = %d", pf.Len())
	}
	buf := make([]byte, pf.PageSize())
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := pf.WritePage(id2, buf, PageStoreData); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pf.PageSize())
	if ptype, err := pf.ReadPage(id2, got); err != nil {
		t.Fatal(err)
	} else if ptype != PageStoreData {
		t.Fatalf("read back page type %v, want %v", ptype, PageStoreData)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("page round trip corrupted")
	}
	// Fresh page reads back zeroed.
	if _, err := pf.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

func TestReadErrors(t *testing.T) {
	pf := newFile(t, 128)
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(InvalidPage, buf); !errors.Is(err, ErrPageRange) {
		t.Fatalf("page 0: %v", err)
	}
	if _, err := pf.ReadPage(99, buf); !errors.Is(err, ErrPageRange) {
		t.Fatalf("oob: %v", err)
	}
	id, _ := pf.Allocate(PageUnknown)
	if _, err := pf.ReadPage(id, make([]byte, 64)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestOpenPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pg")
	pf, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := pf.Allocate(PageUnknown)
	buf := make([]byte, pf.PageSize())
	copy(buf, "hello pages")
	if err := pf.WritePage(id, buf, PageUnknown); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	pf2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if pf2.PhysicalPageSize() != 256 || pf2.Len() != 1 {
		t.Fatalf("reopened: pageSize=%d len=%d", pf2.PhysicalPageSize(), pf2.Len())
	}
	got := make([]byte, pf2.PageSize())
	if _, err := pf2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "hello pages" {
		t.Fatal("content lost across reopen")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	pf, err := Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	// Corrupt the magic.
	raw, _ := Open(path)
	_ = raw
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Write junk over the header.
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage header accepted")
	}
}

func TestClosedOperationsFail(t *testing.T) {
	pf := newFile(t, 128)
	pf.Close()
	if _, err := pf.Allocate(PageUnknown); !errors.Is(err, ErrClosed) {
		t.Fatalf("Allocate after close: %v", err)
	}
	if _, err := pf.ReadPage(1, make([]byte, 128)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close: %v", err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

// --- pool ---------------------------------------------------------------------

func TestPoolCachesPages(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 4)
	id, buf, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "cached")
	pool.markDirty(id)
	pool.Unpin(id)

	// Second access must be a hit with the same content.
	got, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "cached" {
		t.Fatal("cache returned wrong content")
	}
	pool.Unpin(id)
	hits, misses, _, _ := pool.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestPoolEvictionWritesBack(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, buf, err := pool.Allocate(PageUnknown)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(100 + i)
		pool.markDirty(id)
		pool.Unpin(id)
		ids = append(ids, id)
	}
	// All four pages must read back correctly despite capacity 2.
	for i, id := range ids {
		buf, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(100+i) {
			t.Fatalf("page %d lost its write-back (got %d)", id, buf[0])
		}
		pool.Unpin(id)
	}
	_, misses, _, _ := pool.Stats()
	if misses == 0 {
		t.Fatal("expected cache misses with tiny pool")
	}
}

func TestPoolPinnedPagesSurvive(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 2)
	id1, b1, _ := pool.Allocate(PageUnknown)
	copy(b1, "pinned")
	pool.markDirty(id1)
	// id1 stays pinned while we churn through other pages.
	for i := 0; i < 3; i++ {
		id, _, err := pool.Allocate(PageUnknown)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id)
	}
	if string(b1[:6]) != "pinned" {
		t.Fatal("pinned frame was reused")
	}
	pool.Unpin(id1)
}

// With every frame pinned the pool overflows its capacity instead of
// failing (a concurrent searcher mid-traversal must be able to pin a
// page), and shrinks back to capacity once pins are released and later
// requests evict the surplus.
func TestPoolAllPinnedOverflowsThenShrinks(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 1)
	id1, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	// The only steady-state frame is pinned; the next allocation must
	// still succeed via a transient overflow frame.
	id2, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatalf("all-pinned allocation failed instead of overflowing: %v", err)
	}
	if got := pool.frameCount(); got != 2 {
		t.Fatalf("overflowed pool holds %d frames, want 2", got)
	}
	pool.Unpin(id1)
	pool.Unpin(id2)
	// Churn: subsequent requests evict the surplus back down to capacity.
	id3, _, err := pool.Allocate(PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id3)
	if got := pool.frameCount(); got != 1 {
		t.Fatalf("pool did not shrink back to capacity: %d frames, want 1", got)
	}
}

func TestPoolFlushPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.pg")
	pf, err := Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(pf, 4)
	id, buf, _ := pool.Allocate(PageUnknown)
	copy(buf, "flushed")
	pool.markDirty(id)
	pool.Unpin(id)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	pf2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	got := make([]byte, pf2.PageSize())
	if _, err := pf2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "flushed" {
		t.Fatal("flush did not persist")
	}
}

// Random access pattern: pool-mediated state must equal a shadow map.
func TestPoolRandomizedShadow(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 3)
	rng := rand.New(rand.NewSource(91))
	shadow := map[PageID]byte{}
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _, err := pool.Allocate(PageUnknown)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id)
		ids = append(ids, id)
		shadow[id] = 0
	}
	h0, m0, _, _ := pool.Stats()
	for step := 0; step < 500; step++ {
		id := ids[rng.Intn(len(ids))]
		buf, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != shadow[id] {
			t.Fatalf("step %d: page %d = %d, want %d", step, id, buf[0], shadow[id])
		}
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			buf[0] = v
			shadow[id] = v
			pool.markDirty(id)
		}
		pool.Unpin(id)
	}
	h, m, _, _ := pool.Stats()
	if got := h - h0 + m - m0; got != 500 {
		t.Fatalf("500 gets counted %d hits and misses", got)
	}
}

// writeJunk corrupts the file's magic bytes in place.
func writeJunk(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt([]byte("XXXX"), 0)
	return err
}

// Concurrent readers over a shared pool (run under -race): every page
// read must return that page's stamped content, and the per-lease
// counters must sum to the total number of Gets.
func TestPoolConcurrentLeases(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 8) // smaller than the page count: real eviction traffic
	const pages = 32
	var ids []PageID
	for i := 0; i < pages; i++ {
		id, buf, err := pool.Allocate(PageUnknown)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(id) // stamp each page with its id
		pool.markDirty(id)
		pool.Unpin(id)
		ids = append(ids, id)
	}

	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	var totalHits, totalMisses int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease := pool.NewLeaseCtx(context.Background())
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				id := ids[rng.Intn(len(ids))]
				buf, err := lease.Get(id)
				if err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
				if buf[0] != byte(id) {
					t.Errorf("page %d returned stamp %d", id, buf[0])
					lease.Unpin(id)
					return
				}
				lease.Unpin(id)
			}
			if got := lease.Hits + lease.Misses; got != rounds {
				t.Errorf("lease counted %d accesses, want %d", got, rounds)
			}
			mu.Lock()
			totalHits += lease.Hits
			totalMisses += lease.Misses
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total := totalHits + totalMisses; total != goroutines*rounds {
		t.Fatalf("lease counters sum to %d, want %d", total, goroutines*rounds)
	}
	hits, misses, _, _ := pool.Stats()
	if hits != totalHits || misses != totalMisses {
		t.Fatalf("pool stats (%d, %d) disagree with lease sums (%d, %d)",
			hits, misses, totalHits, totalMisses)
	}
}
