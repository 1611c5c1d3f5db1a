package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialdom/internal/geom"
)

// rawPts is a quick-generated point cloud in a small integer grid; integer
// coordinates intentionally produce duplicates and ties.
type rawPts struct {
	Xs [12]uint8
	Ys [12]uint8
	N  uint8
}

func (r rawPts) entries() []Entry {
	n := int(r.N%12) + 1
	es := make([]Entry, n)
	for i := 0; i < n; i++ {
		es[i] = Entry{
			Rect: geom.PointRect(geom.Point{float64(r.Xs[i] % 32), float64(r.Ys[i] % 32)}),
			ID:   int64(i),
		}
	}
	return es
}

var quickCfg = &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(888))}

// Bulk-loaded and incrementally built trees agree with a linear scan on
// window queries, for arbitrary (often degenerate) point sets.
func TestQuickWindowQueriesAgree(t *testing.T) {
	f := func(r rawPts, wx, wy, ww, wh uint8) bool {
		es := r.entries()
		bulk := Bulk(append([]Entry(nil), es...), 4)
		inc := New(4)
		for _, e := range es {
			inc.Insert(e)
		}
		lo := geom.Point{float64(wx % 32), float64(wy % 32)}
		hi := geom.Point{lo[0] + float64(ww%16), lo[1] + float64(wh%16)}
		win := geom.NewRect(lo, hi)
		var want []int
		for _, e := range es {
			if e.Rect.Intersects(win) {
				want = append(want, int(e.ID))
			}
		}
		sort.Ints(want)
		collect := func(tr *Tree) []int {
			var ids []int
			search(tr, tr.Root(), win, func(e Entry) bool { ids = append(ids, int(e.ID)); return true })
			sort.Ints(ids)
			return ids
		}
		for _, got := range [][]int{collect(bulk), collect(inc)} {
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Deleting every entry in arbitrary order always empties the tree, and
// remaining entries stay findable throughout.
func TestQuickDeleteAll(t *testing.T) {
	f := func(r rawPts, permSeed int64) bool {
		es := r.entries()
		tr := New(4)
		for _, e := range es {
			tr.Insert(e)
		}
		rng := rand.New(rand.NewSource(permSeed))
		perm := rng.Perm(len(es))
		for k, pi := range perm {
			if !tr.Delete(es[pi]) {
				return false
			}
			if tr.Len() != len(es)-k-1 {
				return false
			}
		}
		return tr.Height() == 1 && len(tr.Node(tr.Root()).Refs) == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
