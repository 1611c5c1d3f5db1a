package main

import (
	"context"
	"sort"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

// memOverlap: heavily overlapping NBA-like clouds in the in-memory index,
// P-SD, k=1. Nearly all the time goes to core's dominance checks,
// stochastic scans and max-flow, and none to storage: a kernel or filter
// change must show here.
type memOverlap struct {
	sz      sizes
	objs    []*uncertain.Object
	queries []*uncertain.Object

	idx     *core.Index
	backend core.Backend // idx, or its traced wrapper
	tr      *tracer
}

const (
	memOp = core.PSD
	memK  = 1
)

func (w *memOverlap) evolves() bool { return false }

func (w *memOverlap) generate(seed int64) {
	ds := datagen.Generate(datagen.Params{N: w.sz.memN, M: w.sz.memM, Centers: datagen.NBALike, Seed: seed})
	w.objs = ds.Objects
	w.queries = ds.Queries(w.sz.memQueries, 8, 200, seed+101)
}

func (w *memOverlap) build(_ context.Context, _ string, tr *tracer) error {
	idx, err := core.NewIndex(w.objs)
	if err != nil {
		return err
	}
	w.idx, w.backend, w.tr = idx, idx, tr
	if tr != nil {
		w.backend = newTracedBackend(idx, tr, false)
	}
	return nil
}

func (w *memOverlap) search(ctx context.Context, q *uncertain.Object) (*core.Result, error) {
	return spanned(w.tr, spSearch, func() (*core.Result, error) {
		return core.SearchBackend(ctx, w.backend, q, memOp, memK, core.SearchOptions{Filters: core.AllFilters})
	})
}

func (w *memOverlap) pass(ctx context.Context, p *passResult) error {
	digest := uint64(fnvOffset)
	p.start()
	for _, q := range w.queries {
		var res *core.Result
		d, err := timeOp(w.tr, kindQuery, func() (err error) {
			res, err = w.search(ctx, q)
			return err
		})
		if err != nil {
			return err
		}
		p.record(d, true)
		digest = digestResult(digest, res)
		p.detail.addSearch(res)
	}
	p.stop()
	p.counts = counts{Digest: digest, DomChecks: p.detail.stats.DominanceChecks}
	return nil
}

// digestResult folds one answer's candidate ids, in emission order, and
// its length into h.
func digestResult(h uint64, res *core.Result) uint64 {
	for _, c := range res.Candidates {
		h = mix(h, uint64(c.Object.ID()))
	}
	return mix(h, uint64(len(res.Candidates))|1<<63)
}

func (w *memOverlap) verify(ctx context.Context) (int, int, error) {
	return verifySamples(ctx, w.objs, w.queries, memOp, memK, w.search)
}

// verifySamples compares five evenly spaced queries' answers with
// core.BruteForceK over the live objects, as id sets.
func verifySamples(ctx context.Context, live, queries []*uncertain.Object, op core.Operator, k int,
	search func(context.Context, *uncertain.Object) (*core.Result, error)) (checked, failed int, err error) {
	for i := 0; i < verifyQueries; i++ {
		q := queries[i*len(queries)/verifyQueries]
		res, err := search(ctx, q)
		if err != nil {
			return checked, failed, err
		}
		checked++
		if !sameIDSet(res.IDs(), objectIDs(bruteForce(live, q, op, k))) {
			failed++
		}
	}
	return checked, failed, nil
}

const verifyQueries = 5

// bruteForce is core.BruteForceK over the objects ordered by distance to
// the query: the reference scans dominators in slice order and stops at
// the k-th, and near objects are the likely dominators, so the answer is
// the same and comes back in seconds instead of minutes on 20 000 objects.
func bruteForce(objs []*uncertain.Object, q *uncertain.Object, op core.Operator, k int) []*uncertain.Object {
	ck := core.NewChecker(q, op, core.AllFilters)
	type keyed struct {
		o *uncertain.Object
		d float64
	}
	ks := make([]keyed, len(objs))
	for i, o := range objs {
		ks[i] = keyed{o, ck.MinPairDist(o)}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].d < ks[j].d })
	sorted := make([]*uncertain.Object, len(ks))
	for i, e := range ks {
		sorted[i] = e.o
	}
	return core.BruteForceK(sorted, q, op, k, core.AllFilters)
}

func objectIDs(objs []*uncertain.Object) []int {
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID()
	}
	return ids
}

func sameIDSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *memOverlap) finish(context.Context) (int, int, error) { return 0, 0, nil }
func (w *memOverlap) close() error                             { return nil }

func (w *memOverlap) layers(p *passResult, tr *tracer, m map[string]float64) time.Duration {
	lt := tr.totals(p.spanLo, p.spanHi)
	n := float64(p.ops)
	m["core.search_self_ms"] = ms(lt.self[spSearch]) / n
	m["rtree.expand_ms"] = ms(lt.total[spExpand]) / n
	m["rtree.expands"] = float64(lt.count[spExpand]) / n
	coreCounts(m, &p.detail)
	m["core.allocs_per_query"] = float64(p.mallocs) / n
	m["core.alloc_bytes_per_query"] = float64(p.allocBytes) / n
	return lt.self[spSearch] + lt.total[spExpand]
}

// addSearch accumulates one search's engine and storage counters.
func (d *passDetail) addSearch(res *core.Result) {
	d.stats.Add(res.Stats)
	d.io = addIO(d.io, res.IO)
	d.examined += res.Examined
	d.cands += len(res.Candidates)
	d.queries++
}

// coreCounts reports the engine's exact per-search means.
func coreCounts(m map[string]float64, d *passDetail) {
	if d.queries == 0 {
		return
	}
	s, n := d.stats, float64(d.queries)
	m["core.dominance_checks"] = float64(s.DominanceChecks) / n
	m["core.instance_comparisons"] = float64(s.InstanceComparisons) / n
	m["core.stat_prunes"] = float64(s.StatPrunes) / n
	m["core.mbr_validations"] = float64(s.MBRValidations) / n
	m["core.sphere_validations"] = float64(s.SphereValidations) / n
	m["core.level_decisions"] = float64(s.LevelDecisions) / n
	m["core.flow_solves"] = float64(s.FlowSolves) / n
	m["core.heap_pops"] = float64(s.HeapPops) / n
	m["core.entry_prunes"] = float64(s.EntryPrunes) / n
	m["core.examined"] = float64(d.examined) / n
	m["core.candidates"] = float64(d.cands) / n
}

func (w *memOverlap) replaySamples(ctx context.Context) ([]replaySample, error) {
	return sampleAnswers(ctx, w.queries, memOp, w.search)
}

// sampleAnswers runs replayQueries evenly spaced queries and keeps their
// candidate objects.
func sampleAnswers(ctx context.Context, queries []*uncertain.Object, op core.Operator,
	search func(context.Context, *uncertain.Object) (*core.Result, error)) ([]replaySample, error) {
	n := min(replayQueries, len(queries))
	out := make([]replaySample, 0, n)
	for i := 0; i < n; i++ {
		q := queries[i*len(queries)/n]
		res, err := search(ctx, q)
		if err != nil {
			return nil, err
		}
		out = append(out, replaySample{q: q, op: op, cands: res.Objects()})
	}
	return out, nil
}

const replayQueries = 20
