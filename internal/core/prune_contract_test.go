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
// popped and pruned, or never popped — is MBR-dominated by at least k of the
// returned candidates. Every item the backend hands out is popped unless
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
									if dominates(c.Object.MBR(), r) {
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
