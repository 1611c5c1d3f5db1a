package diskindex

import (
	"context"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/faults"
	"spatialdom/internal/pager"
)

// gateReader is a page file's reader with two switches the test throws
// after the index is open: eio fails every read (past the retry budget — a
// hard read error), flip damages the first store-data page read from then
// on, and only that one (a checksum failure twice over: the page is
// quarantined and the search degrades to a flagged partial result).
type gateReader struct {
	io.ReaderAt
	eio, flip bool
	data      map[int64]bool // offsets of the store-data pages
	hit       int64          // the damaged page's offset, once chosen
}

func (g *gateReader) ReadAt(p []byte, off int64) (int, error) {
	if g.eio {
		return 0, syscall.EIO
	}
	n, err := g.ReaderAt.ReadAt(p, off)
	if g.flip && g.data[off] && (g.hit == 0 || g.hit == off) {
		g.hit = off
		p[n/2] ^= 0xff
	}
	return n, err
}

// openMutableOver is OpenFileMutable with the page file's reader wrapped
// and a pool far smaller than the file, so searches read pages.
func openMutableOver(t *testing.T, path string, g *gateReader) *Index {
	t.Helper()
	pf, err := pager.Open(path,
		pager.WithReaderWrapper(func(r io.ReaderAt) io.ReaderAt { g.ReaderAt = r; return g }),
		pager.WithRetry(faults.Retry{Max: 1, Base: time.Microsecond, Cap: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := openMutable(pf, path, &MutableOptions{Frames: 8, WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// TestPinReleasedOnEveryExit: however a search leaves SearchKCtx, the
// snapshot it pinned is unpinned, so the next commit reclaims it.
func TestPinReleasedOnEveryExit(t *testing.T) {
	path, ds, _ := buildOnDisk(t, 300, 5, 97)
	q := ds.Queries(1, 4, 200, 98)[0]
	data := map[int64]bool{}
	for _, id := range pagesByType(t, path)[pager.PageStoreData] {
		data[int64(id)*pager.PageSize] = true
	}
	opts := core.SearchOptions{Filters: core.AllFilters}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name  string
		ctx   context.Context
		arm   func(*gateReader)
		opts  core.SearchOptions
		check func(res *Result, err error, panicked any) bool
	}{
		{"success", context.Background(), func(*gateReader) {}, opts,
			func(res *Result, err error, _ any) bool { return err == nil && len(res.Candidates) > 0 }},
		{"cancelled ctx", cancelled, func(*gateReader) {}, opts,
			func(_ *Result, err error, _ any) bool { return errors.Is(err, context.Canceled) }},
		{"backend read error", context.Background(), func(g *gateReader) { g.eio = true }, opts,
			func(_ *Result, err error, _ any) bool {
				return errors.Is(err, faults.ErrTransientIO) && !faults.IsUnavailable(err)
			}},
		{"partial result", context.Background(), func(g *gateReader) { g.flip = true }, opts,
			func(res *Result, err error, _ any) bool {
				pe, ok := core.AsPartial(err)
				return ok && pe.Result == res && res.Incomplete
			}},
		{"panicking OnCandidate", context.Background(), func(*gateReader) {},
			core.SearchOptions{Filters: core.AllFilters, OnCandidate: func(core.Candidate) { panic("boom") }},
			func(_ *Result, _ error, panicked any) bool { return panicked == "boom" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &gateReader{data: data}
			ix := openMutableOver(t, path, g)
			snap := ix.snap.Load()

			tc.arm(g)
			var res *Result
			var err error
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				res, err = ix.SearchKCtx(tc.ctx, q, core.PSD, 2, tc.opts)
			}()
			if !tc.check(res, err, panicked) {
				t.Fatalf("search left with result %v, error %v, panic %v: not the exit this case is for", res, err, panicked)
			}
			if refs := snap.refs.Load(); refs != 0 {
				t.Fatalf("the search left %d pins on its snapshot", refs)
			}

			// One commit later the snapshot is retired and, unpinned,
			// reclaimed at once. The gate heals; a page the partial case
			// quarantined stays withdrawn, so delete an object whose record
			// is still readable — a delete touches tree pages beyond that.
			g.eio, g.flip = false, false
			committed := false
			for id, ptr := range ix.mut.byID {
				if _, err := ix.Resolve(core.ObjRef{ID: uint64(ptr)}); err != nil {
					continue
				}
				if ok, err := ix.Delete(id); err != nil || !ok {
					t.Fatalf("delete %d after the search: ok=%v err=%v", id, ok, err)
				}
				committed = true
				break
			}
			if !committed {
				t.Fatal("no object readable after the search; the test lost its premise")
			}
			if ix.snap.Load() == snap || len(ix.mut.retired) != 0 {
				t.Fatalf("the commit left %d retired snapshots (current replaced: %v)", len(ix.mut.retired), ix.snap.Load() != snap)
			}
		})
	}
}
