package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spatialdom/internal/geom"
)

func randPoint(r *rand.Rand, d int, scale float64) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = r.Float64() * scale
	}
	return p
}

func randEntries(r *rand.Rand, n, d int, scale float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		a := randPoint(r, d, scale)
		b := make(geom.Point, d)
		for j := range b {
			b[j] = a[j] + r.Float64()*scale/20
		}
		es[i] = Entry{Rect: geom.NewRect(a, b), ID: int64(i)}
	}
	return es
}

func pointEntries(r *rand.Rand, n, d int, scale float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Rect: geom.PointRect(randPoint(r, d, scale)), ID: int64(i)}
	}
	return es
}

// sameBits reports whether two rectangles have the same corners bit for
// bit: unlike Rect.Equal, −0 and +0 differ.
func sameBits(a, b geom.Rect) bool {
	for i := range a.Lo {
		if math.Float64bits(a.Lo[i]) != math.Float64bits(b.Lo[i]) ||
			math.Float64bits(a.Hi[i]) != math.Float64bits(b.Hi[i]) {
			return false
		}
	}
	return len(a.Lo) == len(b.Lo)
}

// checkInvariants walks the tree validating structural invariants:
// balance, occupancy bounds, parent rectangles that are exactly their
// child's MBR, bit for bit, and the entry count.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	leafDepth := -1
	var walk func(id NodeID, depth int) int
	walk = func(id NodeID, depth int) int {
		n := tr.Node(id)
		if len(n.Rects) != len(n.Refs) {
			t.Fatalf("node %d: %d rects, %d refs", id, len(n.Rects), len(n.Refs))
		}
		if len(n.Refs) > tr.fanout {
			t.Fatalf("overflow: %d > %d", len(n.Refs), tr.fanout)
		}
		if depth > 0 && len(n.Refs) < minFill(tr.fanout) {
			t.Fatalf("underflow at depth %d: %d < %d", depth, len(n.Refs), minFill(tr.fanout))
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("unbalanced: leaf at depth %d and %d", leafDepth, depth)
			}
			return len(n.Refs)
		}
		total := 0
		for i, c := range n.Refs {
			if !sameBits(n.Rects[i], mbr(tr.Node(c))) {
				t.Fatalf("node %d: rect %v of child %d is not its MBR %v", id, n.Rects[i], c, mbr(tr.Node(c)))
			}
			total += walk(c, depth+1)
		}
		return total
	}
	if got := walk(tr.Root(), 0); got != tr.Len() {
		t.Fatalf("entry count = %d, want %d", got, tr.Len())
	}
	if leafDepth+1 != tr.Height() {
		t.Fatalf("height = %d, leaves at depth %d", tr.Height(), leafDepth)
	}
}

func TestDefaultFanout(t *testing.T) {
	if f := DefaultFanout(4096, 3); f != 4096/(16*3+8) {
		t.Fatalf("fanout = %d", f)
	}
	if f := DefaultFanout(64, 10); f != 4 {
		t.Fatalf("tiny page fanout = %d, want clamp to 4", f)
	}
}

func TestNewPanicsOnBadBounds(t *testing.T) {
	for _, max := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) must panic", max)
				}
			}()
			New(max)
		}()
	}
}

// Min fill is derived from capacity: Guttman's 40%, never below 2 nor
// above half.
func TestMinFill(t *testing.T) {
	for fanout, want := range map[int]int{4: 2, 5: 2, 8: 3, 16: 6, 72: 28} {
		if got := minFill(fanout); got != want || got > fanout/2 {
			t.Errorf("minFill(%d) = %d, want %d", fanout, got, want)
		}
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(4)
	pts := []geom.Point{{0, 0}, {10, 10}, {5, 5}, {2, 8}, {7, 3}, {1, 1}, {9, 9}}
	for i, p := range pts {
		tr.Insert(Entry{Rect: geom.PointRect(p), ID: int64(i)})
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d", tr.Len())
	}
	checkInvariants(t, tr)

	var got []int
	tr.Search(geom.NewRect(geom.Point{0, 0}, geom.Point{5, 5}), func(e Entry) bool {
		got = append(got, int(e.ID))
		return true
	})
	sort.Ints(got)
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Search ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Search ids = %v, want %v", got, want)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Bulk(pointEntries(rng, 100, 2, 10), 8)
	count := 0
	tr.Search(geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}), func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d entries", count)
	}
}

func TestBulkMatchesInsertResults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 3, 7, 16, 100, 500} {
		es := randEntries(rng, n, 3, 100)
		bulk := Bulk(append([]Entry(nil), es...), 8)
		inc := New(8)
		for _, e := range es {
			inc.Insert(e)
		}
		checkInvariants(t, bulk)
		checkInvariants(t, inc)
		if bulk.Len() != n || inc.Len() != n {
			t.Fatalf("n=%d: sizes %d / %d", n, bulk.Len(), inc.Len())
		}
		// Both must return the same result set for random windows.
		for k := 0; k < 10; k++ {
			a := randPoint(rng, 3, 100)
			b := make(geom.Point, 3)
			for j := range b {
				b[j] = a[j] + rng.Float64()*30
			}
			win := geom.NewRect(a, b)
			collect := func(tr *Tree) []int {
				var ids []int
				tr.Search(win, func(e Entry) bool { ids = append(ids, int(e.ID)); return true })
				sort.Ints(ids)
				return ids
			}
			x, y := collect(bulk), collect(inc)
			if len(x) != len(y) {
				t.Fatalf("n=%d: bulk found %d, insert found %d", n, len(x), len(y))
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("n=%d: result mismatch", n)
				}
			}
		}
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := randEntries(rng, 400, 2, 50)
	tr := Bulk(append([]Entry(nil), es...), 16)
	for k := 0; k < 50; k++ {
		a := randPoint(rng, 2, 50)
		b := geom.Point{a[0] + rng.Float64()*20, a[1] + rng.Float64()*20}
		win := geom.NewRect(a, b)
		var want []int
		for _, e := range es {
			if e.Rect.Intersects(win) {
				want = append(want, int(e.ID))
			}
		}
		sort.Ints(want)
		var got []int
		tr.Search(win, func(e Entry) bool { got = append(got, int(e.ID)); return true })
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("window %v: got %d ids, want %d", win, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %v: mismatch", win)
			}
		}
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := New(4)
	if root := tr.Node(tr.Root()); !root.Leaf || len(root.Refs) != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree root = %+v, height %d; want an entry-less leaf", root, tr.Height())
	}
	tr.Search(geom.PointRect(geom.Point{0}), func(Entry) bool { t.Fatal("visited"); return false })
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	es := pointEntries(rng, 120, 2, 30)
	tr := New(5)
	for _, e := range es {
		tr.Insert(e)
	}
	perm := rng.Perm(len(es))
	for i, pi := range perm {
		if !tr.Delete(es[pi]) {
			t.Fatalf("delete %d failed", pi)
		}
		if tr.Len() != len(es)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
		}
		checkInvariants(t, tr)
	}
	if tr.Delete(es[0]) {
		t.Fatal("delete on empty tree succeeded")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(4)
	tr.Insert(Entry{Rect: geom.PointRect(geom.Point{1, 1}), ID: 7})
	if tr.Delete(Entry{Rect: geom.PointRect(geom.Point{1, 1}), ID: 8}) {
		t.Fatal("deleted wrong ID")
	}
	if tr.Delete(Entry{Rect: geom.PointRect(geom.Point{2, 2}), ID: 7}) {
		t.Fatal("deleted wrong rect")
	}
	if !tr.Delete(Entry{Rect: geom.PointRect(geom.Point{1, 1}), ID: 7}) {
		t.Fatal("failed to delete present entry")
	}
}

func TestBulkSingleEntryAndHeight(t *testing.T) {
	e := Entry{Rect: geom.PointRect(geom.Point{1, 2}), ID: 0}
	tr := Bulk([]Entry{e}, 4)
	if tr.Height() != 1 || tr.Len() != 1 {
		t.Fatalf("height=%d len=%d", tr.Height(), tr.Len())
	}
	if root := tr.Node(tr.Root()); !root.Leaf || len(root.Refs) != 1 || root.Refs[0] != 0 {
		t.Fatalf("root = %+v, want a leaf holding entry 0", root)
	}
}

func TestInsertGrowsHeight(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Rect: geom.PointRect(randPoint(rng, 2, 100)), ID: int64(i)})
		checkInvariants(t, tr)
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d after 100 fanout-4 inserts", tr.Height())
	}
}

// TestParentRectsBitForBit drives a seeded insert/delete sequence through
// a fanout-12 tree whose coordinates repeat and include both −0 and +0, and
// checks after every operation that each parent rectangle is its child's
// MBR bit for bit. Insert grows a parent rectangle by the new entry and
// Delete keeps one when the removed entry lay strictly inside it, so the
// sequence must delete both entries strictly inside their leaf's rectangle
// and entries on its bound — among them entries on a zero bound, where a
// −0 and a +0 are equal as numbers and still not the same bound.
func TestParentRectsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	values := []float64{math.Copysign(0, -1), 0}
	for v := 1.0; v <= 6; v++ {
		values = append(values, v, -v)
	}
	tr := New(12)
	var live []Entry
	var inside, touching, onZero int
	for op, next := 0, int64(0); op < 3000; op++ {
		grow := op/600%2 == 0
		if len(live) == 0 || rng.Intn(4) < map[bool]int{true: 3, false: 1}[grow] {
			lo, hi := make(geom.Point, 2), make(geom.Point, 2)
			for d := range lo {
				a := values[rng.Intn(len(values))]
				b := a + float64(rng.Intn(3)/2)
				lo[d], hi[d] = a, b
			}
			e := Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, ID: next}
			next++
			tr.Insert(e)
			live = append(live, e)
		} else {
			k := rng.Intn(len(live))
			e := live[k]
			if path, _, _ := findLeaf(&tr.store, tr.Root(), e, nil); len(path) >= 2 {
				p := path[len(path)-2]
				r := p.n.Rects[p.child]
				if strictlyInside(e.Rect, r) {
					inside++
				} else {
					touching++
					for d := range r.Lo {
						if e.Rect.Lo[d] == 0 && r.Lo[d] == 0 || e.Rect.Hi[d] == 0 && r.Hi[d] == 0 {
							onZero++
							break
						}
					}
				}
			}
			if !tr.Delete(e) {
				t.Fatalf("op %d: delete of entry %d failed", op, e.ID)
			}
			live = append(live[:k], live[k+1:]...)
		}
		checkInvariants(t, tr)
		if tr.Len() != len(live) {
			t.Fatalf("op %d: Len %d, want %d", op, tr.Len(), len(live))
		}
	}
	t.Logf("deletes from a leaf below the root: %d strictly inside its rectangle, %d on its bound (%d on a zero bound); height %d",
		inside, touching, onZero, tr.Height())
	if inside < 50 || touching < 50 || onZero < 20 {
		t.Fatalf("sequence too tame: %d deletes strictly inside, %d on a bound, %d on a zero bound", inside, touching, onZero)
	}
}
