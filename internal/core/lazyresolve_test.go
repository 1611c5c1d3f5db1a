package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// countingBackend records the object IDs the engine resolves.
type countingBackend struct {
	Backend
	resolved []int
}

func (c *countingBackend) Resolve(r ObjRef) (*uncertain.Object, error) {
	o, err := c.Backend.Resolve(r)
	if err == nil {
		c.resolved = append(c.resolved, o.ID())
	}
	return o, err
}

// bruteForceMetric is BruteForceK under an arbitrary metric.
func bruteForceMetric(objs []*uncertain.Object, q *uncertain.Object, op Operator, k int, m geom.Metric) []int {
	c := NewCheckerMetric(q, op, FilterConfig{}, m)
	var ids []int
	for _, v := range objs {
		n := 0
		for _, u := range objs {
			if u != v && c.Dominates(u, v) {
				n++
			}
		}
		if n < k {
			ids = append(ids, v.ID())
		}
	}
	slices.Sort(ids)
	return ids
}

// An exact-key tie batch in which the entry test drops the very object that
// dominates its batch-mate. Around a one-point query at the origin, A1 and A2
// are the band; V = {(5,0)} and W = {(5,0),(0,9)} share the key 5 and V
// dominates W; V's MBR is dominated by both band members, W's contains the
// query and is dominated by none. For k ≤ 2 V is dropped unresolved and W
// must still be rejected — by A1 and A2, which dominate it through V by
// transitivity; for k = 3 V survives and is W's third, in-batch dominator.
func TestLazyResolveTieBatchWitness(t *testing.T) {
	pt := func(id int, pts ...geom.Point) *uncertain.Object { return uncertain.MustNew(id, pts, nil) }
	q := pt(0, geom.Point{0, 0})
	const vID, wID = 3, 4
	objs := []*uncertain.Object{
		pt(1, geom.Point{1, 0}),
		pt(2, geom.Point{0, 1.5}),
		pt(vID, geom.Point{5, 0}),
		pt(wID, geom.Point{5, 0}, geom.Point{0, 9}),
	}
	idx, err := NewIndex(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operator{SSD, SSSD, PSD, FSD} {
		for k, want := range map[int][]int{1: {1}, 2: {1, 2}, 3: {1, 2, vID}} {
			if bf := idsOf(BruteForceK(objs, q, op, k, AllFilters)); !slices.Equal(bf, want) {
				t.Fatalf("%v k=%d: the construction is off: brute force says %v, want %v", op, k, bf, want)
			}
			cb := &countingBackend{Backend: idx}
			res, err := SearchBackend(context.Background(), cb, q, op, k, SearchOptions{Filters: AllFilters})
			if err != nil {
				t.Fatal(err)
			}
			got := res.IDs()
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v k=%d: got %v, want %v", op, k, got, want)
			}
			if !slices.Contains(cb.resolved, wID) {
				t.Fatalf("%v k=%d: W was pruned on its MBR; the batch never formed", op, k)
			}
			if vResolved := slices.Contains(cb.resolved, vID); vResolved != (k == 3) {
				t.Fatalf("%v k=%d: V resolved = %v", op, k, vResolved)
			}
		}
	}
}

// The height gate: level-by-level never changes a verdict, an object of at
// most fanout² instances never has its local tree built for it, and larger
// objects still reach the coarse levels.
func TestCoarseLevelsHeightGate(t *testing.T) {
	// No Geometric flag: the hull is built lazily on the object too, and
	// would hide a tree in the allocation count.
	on := FilterConfig{LevelByLevel: true, StatPruning: true}
	off := FilterConfig{StatPruning: true}
	for _, m := range []int{1, 4, 5, 16, 17, 64} {
		rng := rand.New(rand.NewSource(int64(1900 + m)))
		mk := func(id int) *uncertain.Object {
			// Clouds that overlap some and clear each other some: checks that
			// get past the statistics, and coarse levels that can decide them.
			return randObject(rng, id, 2, m, geom.Point{50 + rng.Float64()*30, 50 + rng.Float64()*30}, 10)
		}
		q := randObject(rng, 1000, 2, 3, geom.Point{40, 40}, 3)
		objs := make([]*uncertain.Object, 12)
		for i := range objs {
			objs[i] = mk(i)
		}
		for _, op := range []Operator{SSD, SSSD, PSD} {
			var sc CheckScratch
			// allPairs appends c's verdict on every ordered pair to dst.
			allPairs := func(dst []bool, c *Checker, objs []*uncertain.Object) []bool {
				for _, u := range objs {
					for _, v := range objs {
						if u != v {
							dst = append(dst, c.Dominates(u, v))
						}
					}
				}
				return dst
			}
			want := allPairs(nil, NewChecker(q, op, off), objs)
			c := sc.Checker(q, op, on, geom.Euclidean)
			got := allPairs(nil, c, objs) // also grows the scratch slabs
			if !slices.Equal(got, want) {
				t.Fatalf("m=%d %v: verdicts differ with LevelByLevel on", m, op)
			}
			decided := c.Stats.LevelDecisions
			if op != PSD && m > uncertain.LocalTreeFanout*uncertain.LocalTreeFanout {
				if decided == 0 {
					t.Fatalf("m=%d %v: no check was decided level by level", m, op)
				}
				continue
			}
			if decided != 0 {
				t.Fatalf("m=%d %v: %d level decisions on objects with no coarse level", m, op, decided)
			}
			// Fresh copies per measured run (AllocsPerRun's warm-up call
			// would otherwise build whatever the objects build lazily).
			fresh := make([][]*uncertain.Object, 3)
			for r := range fresh {
				for _, o := range objs {
					fresh[r] = append(fresh[r], uncertain.MustNew(o.ID(), o.Points(), o.Probs()))
				}
			}
			next := 0
			if avg := testing.AllocsPerRun(len(fresh)-1, func() {
				got = allPairs(got[:0], sc.Checker(q, op, on, geom.Euclidean), fresh[next])
				next++
			}); avg != 0 {
				t.Fatalf("m=%d %v: %.0f allocations checking fresh objects, want 0 (a local tree was built)", m, op, avg)
			}
		}
	}
}
