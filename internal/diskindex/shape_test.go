package diskindex

import (
	"context"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
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
