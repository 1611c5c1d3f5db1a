package core_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/geom"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// countingBackend records what the engine asks of a Backend: how many node
// entries Expand hands out, every object entry with its MBR, and the object
// entries resolved.
type countingBackend struct {
	core.Backend
	nodes    int
	entries  map[core.ObjRef]geom.Rect
	resolved map[core.ObjRef]bool
}

func (c *countingBackend) Expand(n core.NodeRef, visit func(core.BackendEntry)) error {
	return c.Backend.Expand(n, func(e core.BackendEntry) {
		if e.IsNode {
			c.nodes++
		} else {
			c.entries[e.Obj] = e.Rect
		}
		visit(e)
	})
}

func (c *countingBackend) Resolve(r core.ObjRef) (*uncertain.Object, error) {
	c.resolved[r] = true
	return c.Backend.Resolve(r)
}

// Lazy resolve and the stop at the band's radius keep the pruning contract,
// in memory and on a page file: over random datasets, every operator, k in
// {1, 2, 3, 5}, L2 and L1, and the filters on and off, the candidates are
// the brute-force k-skyband, only examined objects are resolved, every object
// entry handed out is pruned or examined, and each one left unresolved —
// popped and pruned, or never popped — is dominated by at least k of the
// returned candidates under the entry test's own predicate (their positive-
// mass instances against the entry's rectangle, core.RectDominator). Every item the backend hands out is popped unless
// the search stopped at the radius, which happens only with the geometric
// filter on, under L2 and outside F+SD.
func TestLazyResolveMatchesBruteForce(t *testing.T) {
	var pruned, stopped int
	for iter := range 4 {
		ds := datagen.Generate(datagen.Params{N: 120, Dim: 2, M: 5, EdgeLen: 1500, Seed: int64(1801 + iter)})
		q := ds.Queries(1, 3, 600, int64(1901+iter))[0]
		mem, err := core.NewIndex(ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		// Small pages: a tree of several levels over 120 objects.
		pf, err := pager.Create(filepath.Join(t.TempDir(), "idx.pg"), 512)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := diskindex.Build(pager.NewPool(pf, 64), ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		backends := map[string]core.Backend{"memory": mem, "disk": disk}
		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
			for _, op := range core.Operators {
				for _, k := range []int{1, 2, 3, 5} {
					want := core.BruteForceMetric(ds.Objects, q, op, k, m)
					for _, cfg := range []core.FilterConfig{core.AllFilters, {}} {
						dominates := core.RectDominator(q, op, cfg, m)
						for name, b := range backends {
							tag := fmt.Sprintf("iter %d %s %s %v k=%d geometric=%v", iter, name, m.Name(), op, k, cfg.Geometric)
							cb := &countingBackend{Backend: b, entries: map[core.ObjRef]geom.Rect{}, resolved: map[core.ObjRef]bool{}}
							res, err := core.SearchBackend(context.Background(), cb, q, op, k, core.SearchOptions{Filters: cfg, Metric: m})
							if err != nil {
								t.Fatal(err)
							}
							got := res.IDs()
							slices.Sort(got)
							if !slices.Equal(got, want) {
								t.Fatalf("%s: got %v, want %v", tag, got, want)
							}
							if len(cb.resolved) != res.Examined {
								t.Fatalf("%s: %d resolves for %d examined", tag, len(cb.resolved), res.Examined)
							}
							if int64(len(cb.entries)) != res.Stats.ObjectPrunes+int64(res.Examined) {
								t.Fatalf("%s: %d object entries, %d pruned + %d examined",
									tag, len(cb.entries), res.Stats.ObjectPrunes, res.Examined)
							}
							if !cfg.Geometric && res.Stats.ObjectPrunes != 0 {
								t.Fatalf("%s: %d object entries pruned with the filters off", tag, res.Stats.ObjectPrunes)
							}
							for ref, r := range cb.entries {
								if cb.resolved[ref] {
									continue
								}
								pruned++
								n := 0
								for _, c := range res.Candidates {
									if dominates(c.Object, r) {
										n++
									}
								}
								if n < k {
									t.Fatalf("%s: an entry at %v was left unresolved, but only %d candidates dominate it", tag, r, n)
								}
							}
							// The root, every entry handed out, every resolved object.
							pushed := int64(1 + cb.nodes + len(cb.entries) + res.Examined)
							mayStop := cfg.Geometric && m == geom.Euclidean && op != core.FPlusSD
							switch {
							case res.Stats.HeapPops > pushed || (!mayStop && res.Stats.HeapPops != pushed):
								t.Fatalf("%s: %d heap pops for %d items pushed", tag, res.Stats.HeapPops, pushed)
							case res.Stats.HeapPops < pushed:
								stopped++
							}
						}
					}
				}
			}
		}
		pf.Close()
	}
	if pruned == 0 || stopped == 0 {
		t.Fatalf("the property was not exercised: %d entries left unresolved, %d searches stopped at the radius", pruned, stopped)
	}
	t.Logf("%d entries left unresolved, all dominated; %d searches stopped at the radius", pruned, stopped)
}

// The entry test's edges, on two-object datasets where member U is in the
// band when V's entry pops: the search equals brute force, every entry left
// unresolved is dominated by k candidates under core.RectDominator, and V is
// resolved or not as the instance predicate says.
//
//   - U's far corner is an instance of zero probability: its instances prune
//     V, which its MBR would not (L2 and L1). Under F+SD, which keeps MBRs,
//     V stays a candidate.
//   - A query instance has probability zero: U's reach there puts the
//     radius past V, which sits near it and is not dominated there.
//   - U's far distance equals V's near distance and nothing is strict (L2
//     and L1).
//   - The same tie where U's distance squared back rounds below the sum it
//     is the root of: only a comparison of distances sees the tie.
//
// In the last three, S-SD prunes V all the same: its mass test weighs each
// query instance by its probability and U_Q lies below N_r, with U's
// nearer instance as the witness — in the third only if the tie compares
// as one (distances again).
func TestEntryTestEdges(t *testing.T) {
	obj := func(id int, probs []float64, pts ...geom.Point) *uncertain.Object {
		return uncertain.MustNew(id, pts, probs)
	}
	origin := obj(0, nil, geom.Point{0, 0})
	chain := []core.Operator{core.SSD, core.SSSD, core.PSD, core.FSD}
	// 22.843² + 35.598² rounds to s, and sqrt(s)² to one ulp below s.
	const a, b = 22.843, 35.598
	cases := []struct {
		name     string
		q        *uncertain.Object
		u, v     *uncertain.Object
		metrics  []geom.Metric
		ops      []core.Operator
		resolved bool // whether V's entry must be resolved
		// ssdPruned: S-SD's mass test prunes V all the same, because U_Q ≤st
		// N_r with an atom below it, where the F-SD row keeps V.
		ssdPruned bool
	}{
		{"zero-mass far corner", origin,
			obj(1, []float64{1, 0}, geom.Point{1, 0}, geom.Point{50, 50}), obj(2, nil, geom.Point{3, 0}),
			[]geom.Metric{geom.Euclidean, geom.Manhattan}, chain, false, false},
		{"zero-mass far corner F+SD", origin,
			obj(1, []float64{1, 0}, geom.Point{1, 0}, geom.Point{50, 50}), obj(2, nil, geom.Point{3, 0}),
			[]geom.Metric{geom.Euclidean, geom.Manhattan}, []core.Operator{core.FPlusSD}, true, false},
		{"zero-mass query instance", obj(0, []float64{1, 0}, geom.Point{0, 0}, geom.Point{100, 0}),
			obj(1, nil, geom.Point{1, 0}), obj(2, nil, geom.Point{100, 5}),
			[]geom.Metric{geom.Euclidean}, chain, true, true},
		{"far equals near", origin,
			obj(1, nil, geom.Point{1, 0}, geom.Point{5, 0}), obj(2, nil, geom.Point{0, 5}),
			[]geom.Metric{geom.Euclidean, geom.Manhattan}, chain, true, true},
		{"far equals near, squared below", origin,
			obj(1, nil, geom.Point{1, 0}, geom.Point{a, b}), obj(2, nil, geom.Point{b, a}),
			[]geom.Metric{geom.Euclidean}, chain, true, true},
	}
	for _, c := range cases {
		objs := []*uncertain.Object{c.u, c.v}
		idx, err := core.NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.metrics {
			for _, op := range c.ops {
				tag := fmt.Sprintf("%s %s %v", c.name, m.Name(), op)
				cb := &countingBackend{Backend: idx, entries: map[core.ObjRef]geom.Rect{}, resolved: map[core.ObjRef]bool{}}
				res, err := core.SearchBackend(context.Background(), cb, c.q, op, 1, core.SearchOptions{Filters: core.AllFilters, Metric: m})
				if err != nil {
					t.Fatal(err)
				}
				got := res.IDs()
				slices.Sort(got)
				if want := core.BruteForceMetric(objs, c.q, op, 1, m); !slices.Equal(got, want) {
					t.Fatalf("%s: got %v, want %v", tag, got, want)
				}
				dominates := core.RectDominator(c.q, op, core.AllFilters, m)
				for ref, r := range cb.entries {
					if cb.resolved[ref] {
						continue
					}
					n := 0
					for _, cand := range res.Candidates {
						if dominates(cand.Object, r) {
							n++
						}
					}
					if n < 1 {
						t.Fatalf("%s: the entry at %v was left unresolved, but no candidate dominates it", tag, r)
					}
				}
				want := c.resolved && !(c.ssdPruned && op == core.SSD)
				if vResolved := cb.resolved[core.ObjRef{Obj: c.v}]; vResolved != want {
					t.Fatalf("%s: V resolved = %v, want %v", tag, vResolved, want)
				}
			}
		}
	}
}
