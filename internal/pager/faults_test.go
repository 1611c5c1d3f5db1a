package pager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spatialdom/internal/faultfile"
	"spatialdom/internal/faults"
)

// buildFile creates a small page file with n data pages of recognizable
// content and returns its path.
func buildFile(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faults.pg")
	pf, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pf.PageSize())
	for i := 0; i < n; i++ {
		id, err := pf.Allocate(PageStoreData)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(int(id) + j)
		}
		if err := pf.WritePage(id, buf, PageStoreData); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openFaulty reopens path with the given fault schedule injected under the
// physical read path.
func openFaulty(t *testing.T, path string, schedule []faultfile.Fault, opts ...Option) (*PageFile, *faultfile.ReaderAt) {
	t.Helper()
	var fr *faultfile.ReaderAt
	opts = append(opts, WithReaderWrapper(func(r io.ReaderAt) io.ReaderAt {
		fr = faultfile.New(r, 256, schedule)
		return fr
	}))
	pf, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf, fr
}

func TestBitFlipQuarantinesAsChecksum(t *testing.T) {
	path := buildFile(t, 3)
	pf, _ := openFaulty(t, path, []faultfile.Fault{{Kind: faultfile.BitFlip, Page: 2, Seed: 1}})

	buf := make([]byte, pf.PageSize())
	_, err := pf.ReadPage(2, buf)
	if !errors.Is(err, faults.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if !faults.IsUnavailable(err) {
		t.Fatal("stable corruption must quarantine (match ErrUnavailable)")
	}
	// The quarantine is sticky: later reads fail without touching disk.
	reads0, _ := pf.IOCounts()
	if _, err := pf.ReadPage(2, buf); !faults.IsUnavailable(err) {
		t.Fatalf("second read = %v, want unavailable", err)
	}
	if reads, _ := pf.IOCounts(); reads != reads0 {
		t.Fatal("quarantined read should not touch disk")
	}
	st := pf.FaultStats()
	if st.ChecksumFailures < 2 || st.QuarantinedPages != 1 || st.TornPages != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Other pages still read fine.
	if _, err := pf.ReadPage(1, buf); err != nil {
		t.Fatalf("healthy page failed: %v", err)
	}
}

func TestTornPagePersistentQuarantinesAsTorn(t *testing.T) {
	path := buildFile(t, 3)
	// Times 0 = every read torn, with a shifting boundary: the re-read
	// observes different bytes, which classifies as a torn page.
	pf, _ := openFaulty(t, path, []faultfile.Fault{{Kind: faultfile.TornPage, Page: 1, Seed: 3}})

	buf := make([]byte, pf.PageSize())
	_, err := pf.ReadPage(1, buf)
	if !errors.Is(err, faults.ErrTornPage) {
		t.Fatalf("err = %v, want ErrTornPage", err)
	}
	if !faults.IsUnavailable(err) {
		t.Fatal("torn page must quarantine")
	}
	if st := pf.FaultStats(); st.TornPages != 1 {
		t.Fatalf("stats = %+v, want TornPages=1", st)
	}
}

func TestTornWriteThatSettlesRecovers(t *testing.T) {
	path := buildFile(t, 3)
	// One torn read, then the write settles: the single re-read verifies and
	// the page never leaves service.
	pf, _ := openFaulty(t, path, []faultfile.Fault{{Kind: faultfile.TornPage, Page: 1, Times: 1, Seed: 3}})

	buf := make([]byte, pf.PageSize())
	ptype, err := pf.ReadPage(1, buf)
	if err != nil {
		t.Fatalf("settling torn write should heal, got %v", err)
	}
	if ptype != PageStoreData {
		t.Fatalf("ptype = %v, want store-data", ptype)
	}
	want := make([]byte, pf.PageSize())
	for j := range want {
		want[j] = byte(1 + j)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("healed read returned wrong payload")
	}
	st := pf.FaultStats()
	if st.RecoveredReads != 1 || st.QuarantinedPages != 0 {
		t.Fatalf("stats = %+v, want RecoveredReads=1, no quarantine", st)
	}
}

func TestShortReadHealsOnceThenQuarantines(t *testing.T) {
	path := buildFile(t, 3)
	pf, _ := openFaulty(t, path, []faultfile.Fault{{Kind: faultfile.ShortRead, Page: 2, Times: 1}})
	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(2, buf); err != nil {
		t.Fatalf("single short read should heal via re-read, got %v", err)
	}
	if st := pf.FaultStats(); st.ShortReads != 1 || st.RecoveredReads != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Persistent short reads exhaust the one re-read and quarantine.
	pf2, _ := openFaulty(t, path, []faultfile.Fault{{Kind: faultfile.ShortRead, Page: 1}})
	if _, err := pf2.ReadPage(1, buf); !errors.Is(err, faults.ErrShortRead) || !faults.IsUnavailable(err) {
		t.Fatalf("persistent short read = %v, want quarantined ErrShortRead", err)
	}
}

func TestTransientEIORetriesThenHeals(t *testing.T) {
	path := buildFile(t, 3)
	pf, _ := openFaulty(t, path,
		[]faultfile.Fault{{Kind: faultfile.TransientErr, Page: 1, Times: 2}},
		WithRetry(faults.Retry{Max: 3, Base: 50 * time.Microsecond, Cap: time.Millisecond}))

	buf := make([]byte, pf.PageSize())
	if _, err := pf.ReadPage(1, buf); err != nil {
		t.Fatalf("transient fault within budget should heal, got %v", err)
	}
	st := pf.FaultStats()
	if st.TransientRetries != 2 || st.RecoveredReads != 1 || st.QuarantinedPages != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransientEIOExhaustsBudget(t *testing.T) {
	path := buildFile(t, 3)
	pf, _ := openFaulty(t, path,
		[]faultfile.Fault{{Kind: faultfile.TransientErr, Page: 1}}, // persistent
		WithRetry(faults.Retry{Max: 2, Base: 50 * time.Microsecond, Cap: time.Millisecond}))

	buf := make([]byte, pf.PageSize())
	_, err := pf.ReadPage(1, buf)
	if !errors.Is(err, faults.ErrTransientIO) {
		t.Fatalf("err = %v, want ErrTransientIO", err)
	}
	// Exhausted transients are hard errors, not quarantine: the device may
	// heal, so the page is not withdrawn.
	if faults.IsUnavailable(err) {
		t.Fatal("transient exhaustion must not quarantine")
	}
	if st := pf.FaultStats(); st.TransientRetries != 2 {
		t.Fatalf("stats = %+v, want TransientRetries=2", st)
	}
}

func TestTransientRetrySleepHonorsContext(t *testing.T) {
	path := buildFile(t, 3)
	pf, _ := openFaulty(t, path,
		[]faultfile.Fault{{Kind: faultfile.TransientErr, Page: 1}},
		WithRetry(faults.Retry{Max: 10, Base: time.Hour, Cap: time.Hour}))

	ctx, cancel := context.WithCancel(context.Background())
	buf := make([]byte, pf.PageSize())
	done := make(chan error, 1)
	go func() {
		_, err := pf.ReadPageCtx(ctx, 1, buf)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the read reach its backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry backoff ignored ctx cancellation")
	}
}

// blockingReader blocks reads of one physical page until released, so a
// test can hold a pool frame in its loading state.
type blockingReader struct {
	inner   io.ReaderAt
	off     int64
	entered chan struct{}
	release chan struct{}
	once    chan struct{} // buffered(1): only the first read blocks
}

func (b *blockingReader) ReadAt(p []byte, off int64) (int, error) {
	if off == b.off {
		select {
		case b.once <- struct{}{}:
			close(b.entered)
			<-b.release
		default:
		}
	}
	return b.inner.ReadAt(p, off)
}

// TestPoolWaiterHonorsContext is the regression test for waiters on a
// loading frame: a goroutine waiting for another goroutine's in-flight
// load must give up when its own context is canceled, releasing its pin,
// while the load itself continues for the loader.
func TestPoolWaiterHonorsContext(t *testing.T) {
	path := buildFile(t, 3)
	br := &blockingReader{
		off:     2 * 256, // physical offset of page 2
		entered: make(chan struct{}),
		release: make(chan struct{}),
		once:    make(chan struct{}, 1),
	}
	pf, err := Open(path, WithReaderWrapper(func(r io.ReaderAt) io.ReaderAt {
		br.inner = r
		return br
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pool := NewPool(pf, 8)

	loaderDone := make(chan error, 1)
	go func() {
		_, err := pool.GetCtx(context.Background(), 2)
		loaderDone <- err
	}()
	<-br.entered // the loader is inside the blocked physical read

	// A second getter coalesces onto the in-flight load; cancel it.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := pool.GetCtx(ctx, 2)
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter reach its select
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not honor ctx cancellation")
	}

	// The loader itself is unaffected: release the read and it succeeds.
	close(br.release)
	select {
	case err := <-loaderDone:
		if err != nil {
			t.Fatalf("loader err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loader never finished")
	}
	pool.Unpin(2)

	// The canceled waiter released its pin: the frame must be evictable.
	// Fill the pool well past capacity; if page 2's frame leaked a pin it
	// can never be reclaimed, which frameCount exposes as overflow that
	// never shrinks back.
	for i := 0; i < 3; i++ {
		for id := PageID(1); id <= 3; id++ {
			if buf, err := pool.Get(id); err != nil || buf == nil {
				t.Fatalf("get %d: %v", id, err)
			}
			pool.Unpin(id)
		}
	}
}

func TestFsckCleanAndCorrupt(t *testing.T) {
	path := buildFile(t, 4)

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Version != FormatVersion {
		t.Fatalf("fresh file not clean: %+v", rep)
	}
	if rep.ByType[PageHeader] != 1 || rep.ByType[PageStoreData] != 4 {
		t.Fatalf("per-type counts wrong: %v", rep.ByType)
	}

	// Corrupt one byte in each of two data pages, on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []int64{1, 3} {
		if _, err := f.WriteAt([]byte{0xFF}, page*256+17); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	rep, err = Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupt) != 2 {
		t.Fatalf("fsck found %d corrupt pages, want 2", len(rep.Corrupt))
	}
	if rep.Corrupt[0].ID != 1 || rep.Corrupt[1].ID != 3 {
		t.Fatalf("corrupt ids = %v, want [1 3]", rep.Corrupt)
	}
	for _, c := range rep.Corrupt {
		if !errors.Is(c.Err, faults.ErrChecksum) {
			t.Fatalf("corrupt page %d err = %v, want ErrChecksum", c.ID, c.Err)
		}
	}
}

// TestFsckDetectsEveryInjectedCorruption is the acceptance check: corrupt
// a random-ish subset of pages and assert fsck reports exactly that set.
func TestFsckDetectsEveryInjectedCorruption(t *testing.T) {
	const pages = 16
	path := buildFile(t, pages)
	corrupted := map[PageID]bool{}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := PageID(1); id <= pages; id += 3 {
		// Flip a single low bit mid-payload — the smallest damage a CRC
		// must still catch.
		var b [1]byte
		off := int64(id)*256 + 100
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		corrupted[id] = true
	}
	f.Close()

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[PageID]bool{}
	for _, c := range rep.Corrupt {
		got[c.ID] = true
	}
	if len(got) != len(corrupted) {
		t.Fatalf("fsck detected %d of %d corrupt pages", len(got), len(corrupted))
	}
	for id := range corrupted {
		if !got[id] {
			t.Fatalf("fsck missed corrupt page %d", id)
		}
	}
}

// TestHeaderVersionRefused: a header whose version byte is not
// FormatVersion — 0 was once "no checksums to verify" — is refused by Open,
// and fsck lists the header as a finding while still checking every other
// page.
func TestHeaderVersionRefused(t *testing.T) {
	for _, v := range []byte{0, 2} {
		path := buildFile(t, 4)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{v}, 12); err != nil {
			t.Fatal(err)
		}
		f.Close()

		named := fmt.Sprintf("version %d", v)
		if pf, err := Open(path); !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), named) {
			if pf != nil {
				pf.Close()
			}
			t.Fatalf("Open with header version %d: err = %v, want ErrBadVersion naming it", v, err)
		}
		rep, err := Fsck(path)
		if err != nil {
			t.Fatalf("Fsck with header version %d: %v", v, err)
		}
		if len(rep.Corrupt) != 1 || rep.Corrupt[0].ID != 0 || !errors.Is(rep.Corrupt[0].Err, ErrBadVersion) ||
			!strings.Contains(rep.Corrupt[0].Err.Error(), named) {
			t.Fatalf("Fsck with header version %d: findings %v, want the header page alone, naming the version", v, rep.Corrupt)
		}
		if rep.ByType[PageStoreData] != 4 {
			t.Fatalf("Fsck with header version %d verified %d data pages, want 4", v, rep.ByType[PageStoreData])
		}
	}
}
