package diskindex

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// TestMemDiskSameShape is the invariant one R-tree buys: the in-memory
// index and the mutable disk index run the same Insert and Delete over two
// stores, so one sequence of operations leaves them with the same tree —
// node for node, rectangle for rectangle, entry for entry — after every
// single operation. The sequence grows the root, splits leaves, dissolves
// underfull leaves (condense and reinsert) and shrinks the root again; at
// checkpoints leaf entries are resolved to object ids on both sides and
// both backends' candidates are checked against BruteForceK.
func TestMemDiskSameShape(t *testing.T) {
	ds := datagen.Generate(datagen.Params{N: 1300, Dim: 2, M: 3, Seed: 61})
	objs := ds.Objects
	queries := ds.Queries(2, 4, 200, 62)

	mem, err := core.NewIndex(objs[:1])
	if err != nil {
		t.Fatal(err)
	}
	disk, err := CreateFileMutable(filepath.Join(t.TempDir(), "shape.sdix"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}

	live := map[int]*uncertain.Object{objs[0].ID(): objs[0]}
	ops, leaves, height := 0, 1, 1
	var splits, dissolves, grows, shrinks int
	step := func(what string, id int) {
		t.Helper()
		ops++
		checkpoint := ops%250 == 0
		l, h := sameShape(t, mem, disk, checkpoint)
		switch {
		case l > leaves:
			splits++
		case l < leaves:
			dissolves++
		}
		switch {
		case h > height:
			grows++
		case h < height:
			shrinks++
		}
		leaves, height = l, h
		if t.Failed() {
			t.Fatalf("trees diverged at op %d (%s %d)", ops, what, id)
		}
		if !checkpoint {
			return
		}
		all := make([]*uncertain.Object, 0, len(live))
		for _, o := range live {
			all = append(all, o)
		}
		for _, q := range queries {
			var want []int
			for _, o := range core.BruteForceK(all, q, core.SSD, 2, core.AllFilters) {
				want = append(want, o.ID())
			}
			sort.Ints(want)
			for name, b := range map[string]core.KSearcher{"mem": mem, "disk": disk} {
				res, err := b.SearchKCtx(context.Background(), q, core.SSD, 2, core.SearchOptions{Filters: core.AllFilters})
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedIDs(res); !equalIDs(got, want) {
					t.Fatalf("op %d: %s candidates %v, brute force %v", ops, name, got, want)
				}
			}
		}
	}

	for _, o := range objs[1:] {
		if err := mem.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := disk.Insert(o); err != nil {
			t.Fatal(err)
		}
		live[o.ID()] = o
		step("insert", o.ID())
	}
	for _, i := range rand.New(rand.NewSource(63)).Perm(len(objs))[:len(objs)-10] {
		id := objs[i].ID()
		removed, err := disk.Delete(id)
		if err != nil || !removed || !mem.Delete(id) {
			t.Fatalf("delete %d: removed %v, err %v", id, removed, err)
		}
		delete(live, id)
		step("delete", id)
	}
	if ops < 2000 || splits < 3 || dissolves < 3 || grows < 1 || shrinks < 1 {
		t.Fatalf("sequence too tame: %d ops, %d splits, %d dissolved leaves, root grew %d and shrank %d times",
			ops, splits, dissolves, grows, shrinks)
	}
}

// sameShape walks both trees in step through Root/Expand, reporting any
// difference in fan-out, node/entry kind or rectangle (and, with resolve,
// in the object a leaf entry stands for) as a test error, and returns the
// number of leaves and the height the two agree on.
func sameShape(t *testing.T, mem, disk core.Backend, resolve bool) (leaves, height int) {
	t.Helper()
	var walk func(m, d core.NodeRef, depth int)
	walk = func(m, d core.NodeRef, depth int) {
		var me, de []core.BackendEntry
		if err := mem.Expand(m, func(e core.BackendEntry) { me = append(me, e) }); err != nil {
			t.Fatal(err)
		}
		if err := disk.Expand(d, func(e core.BackendEntry) { de = append(de, e) }); err != nil {
			t.Fatal(err)
		}
		if len(me) != len(de) {
			t.Errorf("depth %d: memory node has %d entries, disk node %d", depth, len(me), len(de))
			return
		}
		if len(me) == 0 || !me[0].IsNode {
			leaves++
			height = max(height, depth)
		}
		for i := range me {
			if me[i].IsNode != de[i].IsNode || !me[i].Rect.Equal(de[i].Rect) {
				t.Errorf("depth %d entry %d: memory %v (node %v), disk %v (node %v)",
					depth, i, me[i].Rect, me[i].IsNode, de[i].Rect, de[i].IsNode)
				return
			}
			switch {
			case me[i].IsNode:
				walk(me[i].Node, de[i].Node, depth+1)
			case resolve:
				o, err := disk.Resolve(de[i].Obj)
				if err != nil {
					t.Fatal(err)
				}
				if o.ID() != me[i].Obj.Obj.ID() {
					t.Errorf("depth %d entry %d: memory object %d, disk object %d", depth, i, me[i].Obj.Obj.ID(), o.ID())
				}
			}
		}
	}
	mr, err := mem.Root()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := disk.Root()
	if err != nil {
		t.Fatal(err)
	}
	walk(mr, dr, 1)
	return leaves, height
}

// TestParentRectsBitForBit runs a seeded insert/delete sequence of objects
// whose coordinates repeat and include both −0 and +0 through the
// in-memory index and a mutable disk index, and checks after every
// operation that each rectangle either tree keeps for a child node is that
// child's MBR bit for bit, and that the two trees have one shape. Insert
// grows a parent rectangle by the new entry and Delete keeps one when the
// removed entry lay strictly inside it, so the sequence deletes entries
// strictly inside their leaf's rectangle and entries on its bound — among
// them entries on a zero bound, where −0 and +0 are equal as numbers and
// still not the same bound.
func TestParentRectsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	coord := func() float64 { // −0 or +0 one time in five, else 1…300
		switch rng.Intn(10) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(1 + rng.Intn(300))
	}
	object := func(id int) *uncertain.Object {
		m := 1 + rng.Intn(2)
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = geom.Point{coord(), coord()}
		}
		probs := []float64{1, 0.5, 0.5}[m-1 : 2*m-1]
		return uncertain.MustNew(id, pts, probs)
	}
	first := object(0)
	mem, err := core.NewIndex([]*uncertain.Object{first})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := CreateFileMutable(filepath.Join(t.TempDir(), "zeros.pg"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.Insert(first); err != nil {
		t.Fatal(err)
	}
	live := []*uncertain.Object{first}
	var inside, touching, onZero int
	for op, next := 0, 1; op < 1200; op++ {
		grow := op/400%2 == 0
		if len(live) == 0 || rng.Intn(5) < map[bool]int{true: 4, false: 1}[grow] {
			o := object(next)
			next++
			if err := mem.Insert(o); err != nil {
				t.Fatal(err)
			}
			if err := disk.Insert(o); err != nil {
				t.Fatal(err)
			}
			live = append(live, o)
		} else {
			k := rng.Intn(len(live))
			o := live[k]
			if r, ok := leafRect(t, mem, o.ID()); ok {
				e := o.MBR()
				switch {
				case e.Lo[0] > r.Lo[0] && e.Lo[1] > r.Lo[1] && e.Hi[0] < r.Hi[0] && e.Hi[1] < r.Hi[1]:
					inside++
				case e.Lo[0] == 0 && r.Lo[0] == 0, e.Lo[1] == 0 && r.Lo[1] == 0, e.Hi[0] == 0 && r.Hi[0] == 0, e.Hi[1] == 0 && r.Hi[1] == 0:
					onZero++
					fallthrough
				default:
					touching++
				}
			}
			removed, err := disk.Delete(o.ID())
			if err != nil || !removed || !mem.Delete(o.ID()) {
				t.Fatalf("op %d: delete %d: removed %v, err %v", op, o.ID(), removed, err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		exactRects(t, "memory", mem)
		exactRects(t, "disk", disk)
		sameShape(t, mem, disk, false)
		if t.Failed() {
			t.Fatalf("after op %d", op)
		}
	}
	t.Logf("deletes from a leaf below the root: %d strictly inside its rectangle, %d on its bound (%d on a zero bound)", inside, touching, onZero)
	if inside < 50 || touching < 50 || onZero < 10 {
		t.Fatalf("sequence too tame: %d deletes strictly inside, %d on a bound, %d on a zero bound", inside, touching, onZero)
	}
}

// exactRects walks b from its root and reports, as a test error, every
// rectangle a node keeps for a child node that is not the child's MBR bit
// for bit.
func exactRects(t *testing.T, name string, b core.Backend) {
	t.Helper()
	var walk func(n core.NodeRef) geom.Rect
	walk = func(n core.NodeRef) geom.Rect {
		var es []core.BackendEntry
		if err := b.Expand(n, func(e core.BackendEntry) { es = append(es, e) }); err != nil {
			t.Fatal(err)
		}
		var mbr geom.Rect
		for i, e := range es {
			if e.IsNode {
				if got := walk(e.Node); !sameRectBits(got, e.Rect) {
					t.Errorf("%s: node %d keeps %v for a child whose MBR is %v", name, n.ID, e.Rect, got)
				}
			}
			if i == 0 {
				mbr = e.Rect.Clone()
			} else {
				mbr.Expand(e.Rect)
			}
		}
		return mbr
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	walk(root)
}

// sameRectBits reports whether two rectangles have the same corners bit
// for bit: unlike geom.Rect.Equal, −0 and +0 differ.
func sameRectBits(a, b geom.Rect) bool {
	if len(a.Lo) != len(b.Lo) {
		return false
	}
	for i := range a.Lo {
		if math.Float64bits(a.Lo[i]) != math.Float64bits(b.Lo[i]) || math.Float64bits(a.Hi[i]) != math.Float64bits(b.Hi[i]) {
			return false
		}
	}
	return true
}

// leafRect returns the rectangle the in-memory index's tree keeps for the
// leaf holding object id, or false when that leaf is the root.
func leafRect(t *testing.T, mem core.Backend, id int) (geom.Rect, bool) {
	t.Helper()
	var find func(n core.NodeRef, kept geom.Rect) (geom.Rect, bool)
	find = func(n core.NodeRef, kept geom.Rect) (geom.Rect, bool) {
		var es []core.BackendEntry
		if err := mem.Expand(n, func(e core.BackendEntry) { es = append(es, e) }); err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if !e.IsNode {
				if e.Obj.Obj.ID() == id {
					return kept, kept.Lo != nil
				}
				continue
			}
			if r, ok := find(e.Node, e.Rect); ok {
				return r, true
			}
		}
		return geom.Rect{}, false
	}
	root, err := mem.Root()
	if err != nil {
		t.Fatal(err)
	}
	return find(root, geom.Rect{})
}
