package core

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

func TestInsertDeleteValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	objs := randDataset(rng, 10, 2, 4, 40)
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	dup := uncertain.MustNew(objs[0].ID(), []geom.Point{{0, 0}}, nil)
	if err := idx.Insert(dup); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup insert: %v", err)
	}
	wrongDim := uncertain.MustNew(999, []geom.Point{{0, 0, 0}}, nil)
	if err := idx.Insert(wrongDim); !errors.Is(err, ErrIndexDimMix) {
		t.Fatalf("dim insert: %v", err)
	}
	if idx.Delete(424242) {
		t.Fatal("deleted missing object")
	}
}

// An index evolved through inserts and deletes must answer exactly like a
// fresh index over the surviving objects.
func TestDynamicIndexMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	objs := randDataset(rng, 60, 2, 5, 80)
	idx, err := NewIndex(objs[:40])
	if err != nil {
		t.Fatal(err)
	}
	// Insert the remaining 20.
	for _, o := range objs[40:] {
		if err := idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	// Delete 15 random survivors.
	perm := rng.Perm(len(objs))
	alive := map[int]bool{}
	for _, o := range objs {
		alive[o.ID()] = true
	}
	for _, pi := range perm[:15] {
		if !idx.Delete(objs[pi].ID()) {
			t.Fatalf("delete %d failed", objs[pi].ID())
		}
		alive[objs[pi].ID()] = false
	}
	if idx.Len() != 45 {
		t.Fatalf("Len = %d", idx.Len())
	}

	var survivors []*uncertain.Object
	for _, o := range objs {
		if alive[o.ID()] {
			survivors = append(survivors, o)
		}
	}
	fresh, err := NewIndex(survivors)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
		for _, op := range Operators {
			a := idx.Search(q, op).IDs()
			b := fresh.Search(q, op).IDs()
			sort.Ints(a)
			sort.Ints(b)
			if len(a) != len(b) {
				t.Fatalf("%v: dynamic %v != rebuilt %v", op, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v: dynamic %v != rebuilt %v", op, a, b)
				}
			}
		}
	}
}

// A thousand interleaved inserts and deletes against a model: after every
// step Len, Object, Objects and the insert/delete return values agree with
// a plain map — the list and its position map stay consistent under
// swap-remove — and at the end the index answers like a fresh one over the
// survivors.
func TestInsertDeleteAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	pool := randDataset(rng, 120, 2, 3, 80)
	idx, err := NewIndex(pool[:1])
	if err != nil {
		t.Fatal(err)
	}
	model := map[int]*uncertain.Object{pool[0].ID(): pool[0]}
	for step := 0; step < 1000; step++ {
		o := pool[rng.Intn(len(pool))]
		_, live := model[o.ID()]
		if rng.Intn(2) == 0 {
			if err := idx.Insert(o); (err == nil) == live {
				t.Fatalf("step %d: insert %d with live=%v: %v", step, o.ID(), live, err)
			}
			model[o.ID()] = o
		} else {
			if idx.Delete(o.ID()) != live {
				t.Fatalf("step %d: delete %d with live=%v", step, o.ID(), live)
			}
			delete(model, o.ID())
		}
		if idx.Len() != len(model) || len(idx.Objects()) != len(model) {
			t.Fatalf("step %d: Len %d, %d listed, model holds %d", step, idx.Len(), len(idx.Objects()), len(model))
		}
		if got := idx.Object(o.ID()); got != model[o.ID()] {
			t.Fatalf("step %d: Object(%d) = %v, model %v", step, o.ID(), got, model[o.ID()])
		}
		for _, x := range idx.Objects() {
			if model[x.ID()] != x || idx.Object(x.ID()) != x {
				t.Fatalf("step %d: listed object %d is not the model's", step, x.ID())
			}
		}
	}
	if len(model) == 0 {
		t.Fatal("the walk emptied the index")
	}
	fresh, err := NewIndex(idx.Objects())
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(rng, 9000, 2, 3, geom.Point{40, 40}, 4)
	for _, op := range Operators {
		if got, want := idsOf(idx.Search(q, op).Objects()), idsOf(fresh.Search(q, op).Objects()); !slices.Equal(got, want) {
			t.Fatalf("%v: evolved index answers %v, rebuilt %v", op, got, want)
		}
	}
}

// A Checker's per-object caches must never change verdicts: evaluating
// many pairs in random order with one shared checker gives the same
// results as fresh checkers per pair.
func TestCheckerCacheIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	objs := randDataset(rng, 20, 2, 5, 50)
	q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 50), 3)
	for _, op := range Operators {
		shared := NewChecker(q, op, AllFilters)
		type pair struct{ i, j int }
		var pairs []pair
		for i := range objs {
			for j := range objs {
				if i != j {
					pairs = append(pairs, pair{i, j})
				}
			}
		}
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		for _, p := range pairs {
			got := shared.Dominates(objs[p.i], objs[p.j])
			want := NewChecker(q, op, AllFilters).Dominates(objs[p.i], objs[p.j])
			if got != want {
				t.Fatalf("%v: shared checker verdict for (%d,%d) = %v, fresh = %v",
					op, objs[p.i].ID(), objs[p.j].ID(), got, want)
			}
		}
	}
}

// White-box: the level-by-level bounding distributions must bracket the
// exact distribution in stochastic order (LB ≤st U_Q ≤st UB) at every
// coarse level.
func TestLevelBoundsBracketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(804))
	for iter := 0; iter < 100; iter++ {
		q := randObject(rng, 0, 2, 1+rng.Intn(4), randCenter(rng, 2, 30), 3)
		o := randObject(rng, 1, 2, 5+rng.Intn(20), randCenter(rng, 2, 30), 5)
		c := NewChecker(q, SSD, AllFilters)
		oc := c.summaryOf(o)
		exact := c.distQ(oc)
		maxLvl := o.LocalTree().Height() - 1
		if maxLvl > maxCoarseLevel {
			maxLvl = maxCoarseLevel
		}
		for lvl := 1; lvl <= maxLvl; lvl++ {
			b := c.levelQ(oc, lvl)
			if !stochLE(t, b.lbQ, exact) {
				t.Fatalf("iter %d lvl %d: LB not ≤st exact", iter, lvl)
			}
			if !stochLE(t, exact, b.ubQ) {
				t.Fatalf("iter %d lvl %d: exact not ≤st UB", iter, lvl)
			}
		}
	}
}

// stochLE re-implements X ≤st Y independently as a CDF comparison over
// the grid of all atom values.
func stochLE(t *testing.T, x, y distr.Distribution) bool {
	t.Helper()
	var vals []float64
	for i := 0; i < x.Len(); i++ {
		vals = append(vals, x.Pair(i).Dist)
	}
	for i := 0; i < y.Len(); i++ {
		vals = append(vals, y.Pair(i).Dist)
	}
	for _, v := range vals {
		if x.CDF(v) < y.CDF(v)-1e-9 {
			return false
		}
	}
	return true
}
