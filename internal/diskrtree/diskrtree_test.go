package diskrtree

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/rtree"
)

func newPool(t *testing.T, pageSize, frames int) *pager.Pool {
	t.Helper()
	pf, err := pager.Create(filepath.Join(t.TempDir(), "rt.pg"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pager.NewPool(pf, frames)
}

func randEntries(rng *rand.Rand, n, d int, scale float64) []rtree.Entry {
	es := make([]rtree.Entry, n)
	for i := range es {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64() * scale
			hi[j] = lo[j] + rng.Float64()*scale/20
		}
		es[i] = rtree.Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, ID: int64(i)}
	}
	return es
}

// build bulk-loads es into a fresh tree through a build's TxPager.
func build(t *testing.T, pool *pager.Pool, es []rtree.Entry) *Tree {
	t.Helper()
	tx := pager.NewDirect(pool)
	tr, err := Create(pool, tx, es[0].Rect.Dim(), es)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetaTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// search is the window query over the page tree: every node visit is one
// pool access, which is all the tests below need of it.
func search(t *testing.T, tr *Tree, page pager.PageID, win geom.Rect, fn func(rtree.Entry) bool) bool {
	t.Helper()
	n, err := tr.ReadNodeVia(tr.pool, page)
	if err != nil {
		t.Fatal(err)
	}
	for i, rect := range n.Rects {
		if !rect.Intersects(win) {
			continue
		}
		if n.Leaf {
			if !fn(rtree.Entry{Rect: rect, ID: n.Refs[i]}) {
				return false
			}
		} else if !search(t, tr, pager.PageID(n.Refs[i]), win, fn) {
			return false
		}
	}
	return true
}

// A page holds exactly rtree.DefaultFanout entries — the one capacity
// formula: a bulk-loaded tree fills its first leaf to it, and one entry
// more does not encode.
func TestCapacity(t *testing.T) {
	for _, tc := range []struct{ pageSize, dim int }{{512, 2}, {512, 3}, {4096, 3}} {
		pool := newPool(t, tc.pageSize, 64)
		fan := rtree.DefaultFanout(pool.File().PageSize(), tc.dim)
		es := randEntries(rand.New(rand.NewSource(30)), 3*fan, tc.dim, 100)
		full := &rtree.Node{Leaf: true}
		for _, e := range es[:fan] {
			full.Rects, full.Refs = append(full.Rects, e.Rect), append(full.Refs, e.ID)
		}
		tr := build(t, pool, es)
		buf := make([]byte, pool.File().PageSize())
		if err := EncodeNode(buf, tc.dim, full); err != nil {
			t.Fatalf("page %d dim %d: %d entries do not fit: %v", tc.pageSize, tc.dim, fan, err)
		}
		full.Rects, full.Refs = append(full.Rects, full.Rects[0]), append(full.Refs, 0)
		if err := EncodeNode(buf, tc.dim, full); err == nil {
			t.Fatalf("page %d dim %d: %d entries fit, capacity is %d", tc.pageSize, tc.dim, fan+1, fan)
		}
		first, err := tr.ReadNodeVia(pool, tr.Meta()+1)
		if err != nil || !first.Leaf || len(first.Refs) != fan {
			t.Fatalf("page %d dim %d: first leaf holds %d entries (err %v), want %d", tc.pageSize, tc.dim, len(first.Refs), err, fan)
		}
	}
}

// No entries give the empty tree: a zero-entry leaf root of height 1,
// which reopens as such. A dimensionality no page can hold is refused.
func TestCreateWithoutEntries(t *testing.T) {
	pool := newPool(t, 512, 8)
	tx := pager.NewDirect(pool)
	if _, err := Create(pool, tx, 0, nil); err == nil {
		t.Fatal("dim 0 accepted")
	}
	tr, err := Create(pool, tx, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetaTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(pool, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	root, err := re.ReadNodeVia(pool, re.Root())
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || re.Height() != 1 || re.Dim() != 2 || !root.Leaf || len(root.Refs) != 0 {
		t.Fatalf("empty tree reopens as len=%d height=%d dim=%d, root leaf=%v with %d entries",
			re.Len(), re.Height(), re.Dim(), root.Leaf, len(root.Refs))
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := newPool(t, 512, 16)
	es := randEntries(rng, 500, 2, 100)
	tr := build(t, pool, append([]rtree.Entry(nil), es...))
	if tr.Len() != 500 || tr.Dim() != 2 || tr.Height() < 2 {
		t.Fatalf("metadata: len=%d dim=%d h=%d", tr.Len(), tr.Dim(), tr.Height())
	}
	for k := 0; k < 30; k++ {
		lo := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		hi := geom.Point{lo[0] + rng.Float64()*30, lo[1] + rng.Float64()*30}
		win := geom.Rect{Lo: lo, Hi: hi}
		var want []int64
		for _, e := range es {
			if e.Rect.Intersects(win) {
				want = append(want, e.ID)
			}
		}
		var got []int64
		search(t, tr, tr.Root(), win, func(e rtree.Entry) bool { got = append(got, e.ID); return true })
		sortInt64(want)
		sortInt64(got)
		if len(got) != len(want) {
			t.Fatalf("window %v: got %d, want %d", win, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %v: mismatch", win)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pool := newPool(t, 512, 16)
	tr := build(t, pool, randEntries(rng, 200, 2, 10))
	count := 0
	search(t, tr, tr.Root(), geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{10, 10}}, func(rtree.Entry) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop: count=%d", count)
	}
}

func TestReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.pg")
	pf, err := pager.Create(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	pool := pager.NewPool(pf, 16)
	rng := rand.New(rand.NewSource(33))
	es := randEntries(rng, 120, 3, 50)
	tr := build(t, pool, append([]rtree.Entry(nil), es...))
	meta := tr.Meta()
	pf.Close()

	pf2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	pool2 := pager.NewPool(pf2, 16)
	tr2, err := Open(pool2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 120 || tr2.Dim() != 3 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened metadata wrong: %d %d %d", tr2.Len(), tr2.Dim(), tr2.Height())
	}
	// Full-domain search returns every entry.
	var got []int64
	all := geom.Rect{Lo: geom.Point{-1, -1, -1}, Hi: geom.Point{100, 100, 100}}
	search(t, tr2, tr2.Root(), all, func(e rtree.Entry) bool { got = append(got, e.ID); return true })
	if len(got) != 120 {
		t.Fatalf("reopened search found %d entries", len(got))
	}
}

func TestOpenBadMeta(t *testing.T) {
	pool := newPool(t, 512, 8)
	id, buf, err := pool.Allocate(pager.PageUnknown)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "JUNK")
	pool.Unpin(id)
	if _, err := Open(pool, id); err != ErrBadMeta {
		t.Fatalf("err = %v", err)
	}
}

// Searching with a tiny buffer pool must miss (and re-read) pages — the
// I/O accounting the harness relies on.
func TestIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pool := newPool(t, 512, 256) // large enough to hold the whole tree
	tr := build(t, pool, randEntries(rng, 800, 2, 100))
	h0, m0, r0, _ := pool.Stats()
	all := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}
	search(t, tr, tr.Root(), all, func(rtree.Entry) bool { return true })
	hits, misses, reads, _ := pool.Stats()
	if hits-h0+misses-m0 == 0 {
		t.Fatal("no pool accesses recorded")
	}
	if reads-r0 != misses-m0 {
		t.Fatalf("physical reads %d != misses %d", reads-r0, misses-m0)
	}
	// A second identical search on a warm pool must be mostly hits.
	h0 = hits
	search(t, tr, tr.Root(), all, func(rtree.Entry) bool { return true })
	hits2, misses2, _, _ := pool.Stats()
	if hits2-h0 == 0 {
		t.Fatal("warm search produced no hits")
	}
	if misses2 != misses && pool.File().Len() < 64 {
		t.Fatalf("warm search missed: %d -> %d", misses, misses2)
	}
}

// ReadNodeVia round-trips the exact rectangles written at build time.
func TestNodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := newPool(t, 512, 16)
	es := randEntries(rng, 60, 2, 50)
	tr := build(t, pool, append([]rtree.Entry(nil), es...))
	// Walk the whole tree; every leaf entry must match an input entry.
	byID := map[int64]geom.Rect{}
	for _, e := range es {
		byID[e.ID] = e.Rect
	}
	var walk func(p pager.PageID)
	found := 0
	walk = func(p pager.PageID) {
		n, err := tr.ReadNodeVia(pool, p)
		if err != nil {
			t.Fatal(err)
		}
		// The corners share one backing array; an append to any of them
		// must reallocate rather than write into its neighbour.
		for i := range n.Rects {
			_ = append(n.Rects[i].Lo, -1)
			_ = append(n.Rects[i].Hi, -1)
		}
		if n.Leaf {
			for i, id := range n.Refs {
				want := byID[id]
				if !n.Rects[i].Equal(want) {
					t.Fatalf("entry %d rect %v != %v", id, n.Rects[i], want)
				}
				found++
			}
			return
		}
		for i, ref := range n.Refs {
			c := pager.PageID(ref)
			child, err := tr.ReadNodeVia(pool, c)
			if err != nil {
				t.Fatal(err)
			}
			// Parent rect must cover all child rects.
			for _, r := range child.Rects {
				if !n.Rects[i].ContainsRect(r) {
					t.Fatalf("parent rect does not contain child rect")
				}
			}
			walk(c)
		}
	}
	walk(tr.Root())
	if found != len(es) {
		t.Fatalf("walked %d entries, want %d", found, len(es))
	}
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
