package core

import (
	"context"
	"math"
	"testing"

	"spatialdom/internal/uncertain"
)

// TestMergeSingleBandIsTheEngine: MergeShardBands over one band holding
// the whole dataset is the engine run over a flat tree, so its candidates
// must equal the indexed search's — same IDs in the same order, same
// ranks, same MinDist bits, same dominator counts — for every operator.
func TestMergeSingleBandIsTheEngine(t *testing.T) {
	idx, ds := engineFixture(t, 150, 41)
	opts := SearchOptions{Filters: AllFilters}
	for _, q := range ds.Queries(3, 4, 200, 42) {
		for _, op := range Operators {
			for _, k := range []int{1, 3} {
				want := searchK(idx, q, op, k, opts)
				got, err := MergeShardBands(context.Background(), q, op, k, opts, [][]*uncertain.Object{ds.Objects})
				if err != nil {
					t.Fatal(err)
				}
				// The flat backend has one node: every union object is an
				// object entry, pruned on its MBR or examined.
				if n := got.Stats.ObjectPrunes + int64(got.Examined); n != int64(len(ds.Objects)) {
					t.Fatalf("%v k=%d: merge pruned %d + examined %d, want the whole union %d",
						op, k, got.Stats.ObjectPrunes, got.Examined, len(ds.Objects))
				}
				if len(got.Candidates) != len(want.Candidates) {
					t.Fatalf("%v k=%d: merge %v, index %v", op, k, got.IDs(), want.IDs())
				}
				for i, w := range want.Candidates {
					g := got.Candidates[i]
					if g.Object.ID() != w.Object.ID() || g.Rank != w.Rank || g.Dominators != w.Dominators ||
						math.Float64bits(g.MinDist) != math.Float64bits(w.MinDist) {
						t.Fatalf("%v k=%d candidate %d: merge {%d %d %x %d}, index {%d %d %x %d}", op, k, i,
							g.Object.ID(), g.Rank, math.Float64bits(g.MinDist), g.Dominators,
							w.Object.ID(), w.Rank, math.Float64bits(w.MinDist), w.Dominators)
					}
				}
			}
		}
	}
}
