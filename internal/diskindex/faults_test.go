package diskindex

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/faultfile"
	"spatialdom/internal/faults"
	"spatialdom/internal/pager"
)

// buildOnDisk materializes a dataset into a page file and returns the path
// together with the dataset and the clean in-memory reference index.
func buildOnDisk(t *testing.T, n, m int, seed int64) (string, *datagen.Dataset, *core.Index) {
	t.Helper()
	ds := datagen.Generate(datagen.Params{N: n, M: m, EdgeLen: 400, Seed: seed})
	mem, err := core.NewIndex(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.pg")
	pf, err := pager.Create(path, pager.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pager.NewPool(pf, 64), ds.Objects); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ds, mem
}

// pagesByType scans a clean file and maps page type → physical page ids.
func pagesByType(t *testing.T, path string) map[pager.PageType][]pager.PageID {
	t.Helper()
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	out := map[pager.PageType][]pager.PageID{}
	buf := make([]byte, pf.PageSize())
	for id := pager.PageID(1); int(id) <= pf.Len(); id++ {
		ptype, err := pf.ReadPage(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		out[ptype] = append(out[ptype], id)
	}
	return out
}

// openWithFaults reopens the index with a fault schedule injected under
// the physical read path.
func openWithFaults(t *testing.T, path string, schedule []faultfile.Fault) *Index {
	t.Helper()
	pf, err := pager.Open(path, pager.WithReaderWrapper(func(r io.ReaderAt) io.ReaderAt {
		return faultfile.New(r, pager.PageSize, schedule)
	}), pager.WithRetry(faults.Retry{Max: 3, Base: 20 * time.Microsecond, Cap: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix, err := Open(pager.NewPool(pf, 64), SuperPageID)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func sortedIDs(res *core.Result) []int {
	ids := res.IDs()
	sort.Ints(ids)
	return ids
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The fault suite's core invariant, asserted by every test below: a search
// under injected faults must either return the clean answer with no error,
// or a result explicitly flagged as partial — a result that differs from
// the clean one without the flag is the wrong-answer bug the whole read
// path exists to prevent.

// TestSearchUnderTransientFaultsIsExact: transient EIO within the retry
// budget must heal invisibly — exact results, no error, no quarantine.
func TestSearchUnderTransientFaultsIsExact(t *testing.T) {
	path, ds, mem := buildOnDisk(t, 120, 5, 91)
	byType := pagesByType(t, path)
	var sched []faultfile.Fault
	for _, id := range byType[pager.PageTreeNode] {
		sched = append(sched, faultfile.Fault{Kind: faultfile.TransientErr, Page: int64(id), Times: 2})
	}
	for i, id := range byType[pager.PageStoreData] {
		if i%2 == 0 {
			sched = append(sched, faultfile.Fault{Kind: faultfile.ShortRead, Page: int64(id), Times: 1})
		}
	}
	ix := openWithFaults(t, path, sched)

	for qi, q := range ds.Queries(3, 4, 200, 17) {
		for _, op := range core.Operators {
			want := sortedIDs(mem.Search(q, op))
			res, err := searchK(ix, q, op, 1)
			if err != nil {
				t.Fatalf("q%d %v: transient faults must heal, got %v", qi, op, err)
			}
			if res.Incomplete {
				t.Fatalf("q%d %v: healed search flagged incomplete", qi, op)
			}
			if got := sortedIDs(res); !equalIDs(got, want) {
				t.Fatalf("q%d %v: %v != clean %v", qi, op, got, want)
			}
		}
	}
	if st := ix.FaultStats(); st.RecoveredReads == 0 {
		t.Fatalf("no recovered reads despite injected transients: %+v", st)
	}
	if ix.FaultStats().QuarantinedPages != 0 {
		t.Fatal("transient faults must not quarantine")
	}
}

// TestSearchUnderStableCorruptionDegrades: bit-flipped tree pages must
// produce flagged partial results (or clean ones where the traversal never
// touches the damage) — never a silently different candidate set.
func TestSearchUnderStableCorruptionDegrades(t *testing.T) {
	path, ds, mem := buildOnDisk(t, 200, 5, 92)
	byType := pagesByType(t, path)
	nodes := byType[pager.PageTreeNode]
	if len(nodes) < 4 {
		t.Fatalf("dataset too small: %d tree nodes", len(nodes))
	}
	// Corrupt a third of the leaf-level pages (leaves are written first)
	// and a few object pages, leaving the root and metadata intact.
	var sched []faultfile.Fault
	for i := 0; i < len(nodes)-1; i += 3 {
		sched = append(sched, faultfile.Fault{Kind: faultfile.BitFlip, Page: int64(nodes[i]), Seed: uint64(i + 1)})
	}
	data := byType[pager.PageStoreData]
	for i := 0; i < len(data); i += 4 {
		sched = append(sched, faultfile.Fault{Kind: faultfile.BitFlip, Page: int64(data[i]), Seed: uint64(i + 101)})
	}
	ix := openWithFaults(t, path, sched)

	degraded := 0
	for qi, q := range ds.Queries(4, 4, 200, 18) {
		for _, op := range core.Operators {
			want := sortedIDs(mem.Search(q, op))
			res, err := searchK(ix, q, op, 1)
			if pe, ok := core.AsPartial(err); ok {
				degraded++
				if res == nil || pe.Result != res {
					t.Fatalf("q%d %v: partial error without its result", qi, op)
				}
				if !res.Incomplete {
					t.Fatalf("q%d %v: partial result not flagged Incomplete", qi, op)
				}
				if pe.UnreadableNodes+pe.UnreadableObjects == 0 {
					t.Fatalf("q%d %v: partial with zero skip counts", qi, op)
				}
				if !faults.IsUnavailable(pe) {
					t.Fatalf("q%d %v: partial does not unwrap to ErrUnavailable", qi, op)
				}
				continue
			}
			if err != nil {
				t.Fatalf("q%d %v: hard error under stable corruption: %v", qi, op, err)
			}
			// No flag → the traversal dodged every damaged page, so the
			// answer must be exactly the clean one.
			if got := sortedIDs(res); !equalIDs(got, want) {
				t.Fatalf("q%d %v: unflagged result differs from clean: %v != %v", qi, op, got, want)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query degraded despite corrupted tree pages — schedule too weak to test anything")
	}
	if ix.FaultStats().QuarantinedPages == 0 {
		t.Fatal("stable corruption should have quarantined pages")
	}
}

// TestSearchUnderPersistentTornPagesDegrades covers the remaining
// persistent class: a forever-torn page quarantines as ErrTornPage and
// searches degrade the same way.
func TestSearchUnderPersistentTornPagesDegrades(t *testing.T) {
	path, ds, _ := buildOnDisk(t, 150, 5, 93)
	nodes := pagesByType(t, path)[pager.PageTreeNode]
	sched := []faultfile.Fault{{Kind: faultfile.TornPage, Page: int64(nodes[0]), Seed: 7}}
	ix := openWithFaults(t, path, sched)

	sawPartial := false
	for _, q := range ds.Queries(4, 4, 200, 19) {
		res, err := searchK(ix, q, core.PSD, 1)
		if pe, ok := core.AsPartial(err); ok {
			sawPartial = true
			if !res.Incomplete || pe.UnreadableNodes == 0 {
				t.Fatalf("torn-page degradation malformed: %+v", pe)
			}
		} else if err != nil {
			t.Fatalf("hard error: %v", err)
		}
	}
	if !sawPartial {
		t.Fatal("no query reached the torn page")
	}
	if st := ix.FaultStats(); st.TornPages == 0 {
		t.Fatalf("torn page not classified: %+v", st)
	}
}

// TestParallelSearchSurvivesDegradation: searches running at once over a
// damaged file each come back whole, degraded ones flagged and the others
// equal to the clean index. Run with -race this also exercises the
// quarantine path under concurrency.
func TestParallelSearchSurvivesDegradation(t *testing.T) {
	path, ds, mem := buildOnDisk(t, 200, 5, 94)
	byType := pagesByType(t, path)
	nodes := byType[pager.PageTreeNode]
	var sched []faultfile.Fault
	for i := 0; i < len(nodes)-1; i += 2 {
		sched = append(sched, faultfile.Fault{Kind: faultfile.BitFlip, Page: int64(nodes[i]), Seed: uint64(i + 1)})
	}
	ix := openWithFaults(t, path, sched)

	queries := ds.Queries(8, 4, 200, 20)
	results := make([]*core.Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ix.SearchKCtx(context.Background(), q, core.PSD, 1, core.SearchOptions{Filters: core.AllFilters})
		}()
	}
	wg.Wait()
	flagged := 0
	for i, res := range results {
		if _, partial := core.AsPartial(errs[i]); errs[i] != nil && !partial {
			t.Fatalf("query %d: hard error: %v", i, errs[i])
		}
		if res.Incomplete {
			flagged++
			continue
		}
		want := sortedIDs(mem.Search(queries[i], core.PSD))
		if got := sortedIDs(res); !equalIDs(got, want) {
			t.Fatalf("query %d: unflagged result differs from clean", i)
		}
	}
	if flagged == 0 {
		t.Fatal("no query degraded — schedule too weak to test anything")
	}
}

// TestRewriteRoundTripsCurrentFormat: rewriting an already-current file is
// a safe no-op content-wise.
func TestRewriteRoundTripsCurrentFormat(t *testing.T) {
	path, ds, mem := buildOnDisk(t, 100, 5, 96)
	if err := RewriteFile(path, 64); err != nil {
		t.Fatal(err)
	}
	pf, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	ix, err := Open(pager.NewPool(pf, 64), SuperPageID)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 4, 200, 22)[0]
	want := sortedIDs(mem.Search(q, core.PSD))
	res, err := searchK(ix, q, core.PSD, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedIDs(res); !equalIDs(got, want) {
		t.Fatalf("rewrite changed answers: %v != %v", got, want)
	}
}

// TestOpenRefusesOtherFormatVersion: a header whose version byte is not
// pager.FormatVersion — 0 once meant "verify nothing" — opens through no
// path, read-only or mutable, and the refusal names the version.
func TestOpenRefusesOtherFormatVersion(t *testing.T) {
	for _, v := range []byte{0, 2} {
		path, _, _ := buildOnDisk(t, 60, 4, 99)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{v}, 12); err != nil {
			t.Fatal(err)
		}
		f.Close()

		named := fmt.Sprintf("version %d", v)
		ro, err := OpenFile(path, 32)
		if !errors.Is(err, pager.ErrBadVersion) || !strings.Contains(err.Error(), named) {
			t.Errorf("OpenFile with header version %d: index %v, err %v; want pager.ErrBadVersion naming it", v, ro, err)
		}
		rw, err := OpenFileMutable(path, nil)
		if !errors.Is(err, pager.ErrBadVersion) || !strings.Contains(err.Error(), named) {
			t.Errorf("OpenFileMutable with header version %d: index %v, err %v; want pager.ErrBadVersion naming it", v, rw, err)
		}
	}
}
