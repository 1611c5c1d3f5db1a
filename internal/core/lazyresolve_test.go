package core

import (
	"context"
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
