package spatialdom

// Benchmarks regenerating the paper's evaluation, one per figure (see
// DESIGN.md §14 and EXPERIMENTS.md). Dataset sizes are scaled down from the
// paper's 100k×40 grid so the whole suite runs in minutes on one core; the
// comparison SHAPES between operators are the reproduction target. Custom
// metrics report the figure's y-axis: candidates/query for the
// effectiveness figures (10, 11), wall time for the efficiency figures
// (12, 13, and ns/op everywhere), and instance comparisons for the
// Appendix C ablation (16).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=Fig10 -benchtime=5x

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/harness"
	"spatialdom/internal/server/front"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

// benchSpec is the scaled-down Table 2 defaults used by the benchmarks.
const (
	benchN       = 600
	benchMd      = 8
	benchHd      = 400.0
	benchMq      = 6
	benchHq      = 200.0
	benchQueries = 4
	benchSeed    = 20150531 // SIGMOD'15 opening day
)

type benchData struct {
	idx     *core.Index
	queries []*Object
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]benchData{}
)

// dataFor builds (and caches) a dataset + workload for a parameter set.
func dataFor(b *testing.B, key string, p datagen.Params, mq int, hq float64) benchData {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchCache[key]; ok {
		return d
	}
	ds := datagen.Generate(p)
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		b.Fatal(err)
	}
	d := benchData{idx: idx, queries: ds.Queries(benchQueries, mq, hq, benchSeed+7777)}
	benchCache[key] = d
	return d
}

func defaultParams(centers datagen.CenterDist, n int) datagen.Params {
	return datagen.Params{N: n, M: benchMd, EdgeLen: benchHd, Centers: centers, Seed: benchSeed}
}

// searchK is the benchmarks' shorthand for the full call under a
// background context, where the memory backend cannot fail.
func searchK(idx *Index, q *Object, op Operator, k int, opts core.SearchOptions) *Result {
	res, _ := idx.SearchKCtx(context.Background(), q, op, k, opts)
	return res
}

// runSearches runs the workload round-robin for b.N iterations, reports
// the average candidate count and returns the summed dominance counters.
func runSearches(b *testing.B, d benchData, op Operator, cfg FilterConfig) core.Stats {
	b.Helper()
	var candidates float64
	var st core.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := d.queries[i%len(d.queries)]
		res := searchK(d.idx, q, op, 1, core.SearchOptions{Filters: cfg})
		candidates += float64(len(res.Candidates))
		st.Add(res.Stats)
	}
	b.ReportMetric(candidates/float64(b.N), "candidates/query")
	b.ReportMetric(float64(st.InstanceComparisons)/float64(b.N), "comparisons/query")
	return st
}

// figure10Datasets mirrors the Figure 10/12 dataset suite.
func figure10Datasets() []struct {
	label string
	p     datagen.Params
} {
	return []struct {
		label string
		p     datagen.Params
	}{
		{"A-N", defaultParams(datagen.AntiCorrelated, benchN)},
		{"E-N", defaultParams(datagen.Independent, benchN)},
		{"HOUSE", defaultParams(datagen.HouseLike, benchN)},
		{"CA", func() datagen.Params {
			p := defaultParams(datagen.Clustered, benchN/2)
			p.Clusters = 8
			return p
		}()},
		{"NBA", defaultParams(datagen.NBALike, benchN/4)},
		{"GW", func() datagen.Params {
			p := defaultParams(datagen.GWLike, benchN)
			p.Clusters = 40
			return p
		}()},
		{"USA", func() datagen.Params {
			p := defaultParams(datagen.Clustered, benchN*2)
			p.Clusters = 60
			return p
		}()},
	}
}

// BenchmarkFig10 — candidate size per dataset per operator (Figure 10).
// The candidates/query metric is the figure's y-axis.
func BenchmarkFig10(b *testing.B) {
	for _, ds := range figure10Datasets() {
		for _, op := range Operators {
			b.Run(fmt.Sprintf("%s/%s", ds.label, op), func(b *testing.B) {
				d := dataFor(b, ds.label, ds.p, benchMq, benchHq)
				runSearches(b, d, op, AllFilters)
			})
		}
	}
}

// BenchmarkFig12 — query response time per dataset per operator
// (Figure 12); ns/op is the figure's y-axis.
func BenchmarkFig12(b *testing.B) {
	for _, ds := range figure10Datasets() {
		for _, op := range Operators {
			b.Run(fmt.Sprintf("%s/%s", ds.label, op), func(b *testing.B) {
				d := dataFor(b, ds.label, ds.p, benchMq, benchHq)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.idx.Search(d.queries[i%len(d.queries)], op)
				}
			})
		}
	}
}

// sweepCases enumerates the Figure 11/13 parameter sweeps (a–f).
func sweepCases() []struct {
	sub   string
	label string
	p     datagen.Params
	mq    int
	hq    float64
} {
	type cse = struct {
		sub   string
		label string
		p     datagen.Params
		mq    int
		hq    float64
	}
	var out []cse
	add := func(sub, label string, p datagen.Params, mq int, hq float64) {
		out = append(out, cse{sub, label, p, mq, hq})
	}
	base := defaultParams(datagen.AntiCorrelated, benchN)
	for _, v := range []int{4, 8, 16} { // (a) m_d
		p := base
		p.M = v
		add("a_md", fmt.Sprint(v), p, benchMq, benchHq)
	}
	for _, v := range []float64{100, 300, 500} { // (b) h_d
		p := base
		p.EdgeLen = v
		add("b_hd", fmt.Sprint(v), p, benchMq, benchHq)
	}
	for _, v := range []int{3, 6, 12} { // (c) m_q
		add("c_mq", fmt.Sprint(v), base, v, benchHq)
	}
	for _, v := range []float64{100, 300, 500} { // (d) h_q
		add("d_hq", fmt.Sprint(v), base, benchMq, v)
	}
	for _, v := range []int{300, 600, 1200} { // (e) n, USA-like
		p := defaultParams(datagen.Clustered, v)
		p.Clusters = 60
		add("e_n", fmt.Sprint(v), p, benchMq, benchHq)
	}
	for _, v := range []int{2, 3, 4, 5} { // (f) d
		p := base
		p.Dim = v
		add("f_d", fmt.Sprint(v), p, benchMq, benchHq)
	}
	return out
}

// BenchmarkFig11 — candidate size vs each Table 2 parameter (Figure 11,
// subfigures a–f); candidates/query is the y-axis.
func BenchmarkFig11(b *testing.B) {
	for _, c := range sweepCases() {
		for _, op := range Operators {
			b.Run(fmt.Sprintf("%s=%s/%s", c.sub, c.label, op), func(b *testing.B) {
				key := fmt.Sprintf("sweep/%s/%s/%d/%g", c.sub, c.label, c.mq, c.hq)
				d := dataFor(b, key, c.p, c.mq, c.hq)
				runSearches(b, d, op, AllFilters)
			})
		}
	}
}

// BenchmarkFig13 — response time vs each Table 2 parameter (Figure 13,
// subfigures a–f); ns/op is the y-axis.
func BenchmarkFig13(b *testing.B) {
	for _, c := range sweepCases() {
		for _, op := range Operators {
			b.Run(fmt.Sprintf("%s=%s/%s", c.sub, c.label, op), func(b *testing.B) {
				key := fmt.Sprintf("sweep/%s/%s/%d/%g", c.sub, c.label, c.mq, c.hq)
				d := dataFor(b, key, c.p, c.mq, c.hq)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.idx.Search(d.queries[i%len(d.queries)], op)
				}
			})
		}
	}
}

// BenchmarkFig14 — the progressive property under PSD (Figure 14): time to
// the first candidate and to half the candidates, as fractions of the full
// response time.
func BenchmarkFig14(b *testing.B) {
	p := defaultParams(datagen.Clustered, benchN*2)
	p.Clusters = 60
	d := dataFor(b, "fig14", p, benchMq, benchHq)
	var first, half, full float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := d.queries[i%len(d.queries)]
		var emits []time.Duration
		res := searchK(d.idx, q, PSD, 1, core.SearchOptions{
			Filters:     AllFilters,
			OnCandidate: func(c Candidate) { emits = append(emits, c.Elapsed) },
		})
		if len(emits) == 0 {
			continue
		}
		first += float64(emits[0]) / float64(res.Elapsed)
		half += float64(emits[(len(emits)-1)/2]) / float64(res.Elapsed)
		full++
	}
	if full > 0 {
		b.ReportMetric(first/full*100, "%time-to-first")
		b.ReportMetric(half/full*100, "%time-to-half")
	}
}

// BenchmarkFig16 — the Appendix C filtering ablation as wall time: each
// filter stack of harness.AblationConfigs (brute force, each technique
// alone, and both) for the three proposed operators on HOUSE-like data.
func BenchmarkFig16(b *testing.B) {
	p := defaultParams(datagen.HouseLike, benchN/2)
	for _, op := range []Operator{SSD, SSSD, PSD} {
		for _, cfg := range harness.AblationConfigs() {
			b.Run(fmt.Sprintf("%s/%s", op, cfg.Label), func(b *testing.B) {
				d := dataFor(b, "fig16", p, benchMq, benchHq)
				runSearches(b, d, op, cfg.Cfg)
			})
		}
	}
}

// --- micro-benchmarks of the building blocks ---------------------------------

// BenchmarkDominanceCheck times a single pairwise dominance decision per
// operator with all filters enabled, and (PSD/m=64) the decision no filter
// can take: 64-instance objects against their own copy pushed a little
// further from the query, where the MBRs overlap and only the exact
// Theorem 12 transport over 64 × 64 pairs proves the match. No workload of
// the repo benchmark has objects that wide, so `make check` runs this
// sub-benchmark once to keep that kernel executed.
func BenchmarkDominanceCheck(b *testing.B) {
	ds := datagen.Generate(defaultParams(datagen.AntiCorrelated, 64))
	qs := ds.Queries(1, benchMq, benchHq, 3)
	for _, op := range Operators {
		b.Run(op.String(), func(b *testing.B) {
			checker := core.NewChecker(qs[0], op, AllFilters)
			objs := ds.Objects
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := objs[i%len(objs)]
				v := objs[(i*7+1)%len(objs)]
				if u == v {
					continue
				}
				checker.Dominates(u, v)
			}
		})
	}
	b.Run("PSD/m=64", func(b *testing.B) {
		p := defaultParams(datagen.AntiCorrelated, 16)
		p.M = 64
		wide := datagen.Generate(p).Objects
		q := qs[0]
		qc := q.MBR().Center()
		pushed := make([]*Object, len(wide))
		for i, u := range wide {
			pts := make([]Point, u.Len())
			for j, pt := range u.Points() {
				d := geom.Dist(pt, qc)
				pts[j] = pt.Clone()
				for k := range pts[j] {
					pts[j][k] += (pt[k] - qc[k]) / d * (1 + float64(j%3))
				}
			}
			pushed[i] = uncertain.MustNew(1000+i, pts, u.Probs())
		}
		checker := core.NewChecker(q, PSD, AllFilters)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !checker.Dominates(wide[i%len(wide)], pushed[i%len(wide)]) {
				b.Fatal("an object must P-SD-dominate its pushed-out copy")
			}
		}
		st := checker.Stats
		if st.CoverValidations > 0 || st.FlowSolves == 0 {
			b.Fatalf("a validation decided a pair meant for the exact test: %+v", st)
		}
		b.ReportMetric(float64(st.FlowSolves)/float64(b.N), "flow-solves/op")
	})
}

// BenchmarkBandScan is the `go test -bench` handle on the sweep's inner
// loop — one object summarised, then tested against the whole band — on
// the shape where that loop is the whole query: P-SD over 200 heavily
// overlapping NBA-like objects of 10 instances, where nearly every object is
// a candidate and no entry is pruned. On that shape most pairs the
// statistics let through are refuted by an isolated instance (rung 4a), the
// rest go to the sweep and the transport: `make check` runs it once and it
// fails if that stops being what it measures.
func BenchmarkBandScan(b *testing.B) {
	p := datagen.Params{N: 200, M: 10, Centers: datagen.NBALike, Seed: benchSeed}
	d := dataFor(b, "bandscan", p, 8, benchHq)
	st := runSearches(b, d, PSD, AllFilters)
	if st.FlowSolves == 0 || st.IsolationPrunes == 0 {
		b.Fatalf("the band scan no longer ends in the isolation rung, the sweep and the transport: %+v", st)
	}
	b.ReportMetric(float64(st.FlowSolves)/float64(b.N), "flow-solves/query")
	b.ReportMetric(float64(st.CoverValidations)/float64(b.N), "cover-validations/query")
	b.ReportMetric(float64(st.IsolationPrunes)/float64(b.N), "isolation-prunes/query")
}

// BenchmarkSearchPSDMiss is the handle on what a cache miss of the repo
// benchmark's served_mixed workload costs the engine (bench/wl_served.go):
// P-SD, k = 4, over 3 500 anti-correlated 3-d objects of 10 instances with
// 8-instance queries, where most popped entries are put to the band's
// entry test and some sixty pairs a query reach rung 7. It fails unless the
// match witness, rung 7, takes more of them than the Theorem 12 transport
// is left to solve.
func BenchmarkSearchPSDMiss(b *testing.B) {
	ds := datagen.Generate(datagen.Params{N: 3500, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(32, 8, 200, benchSeed+101)
	var flowSolves, entryTests, covers float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := searchK(idx, queries[i%len(queries)], PSD, 4, core.SearchOptions{Filters: AllFilters})
		flowSolves += float64(res.Stats.FlowSolves)
		entryTests += float64(res.Stats.HeapPops - int64(res.Examined))
		covers += float64(res.Stats.CoverValidations)
	}
	if flowSolves >= covers {
		b.Fatalf("%.1f flow solves against %.1f cover validations a query: the match witness no longer takes the served misses' pairs",
			flowSolves/float64(b.N), covers/float64(b.N))
	}
	b.ReportMetric(flowSolves/float64(b.N), "flow-solves/query")
	b.ReportMetric(entryTests/float64(b.N), "entry-tests/query")
	b.ReportMetric(covers/float64(b.N), "cover-validations/query")
}

// BenchmarkDoorWrite times what a write costs the front door, the write
// half of the repo benchmark's served_mixed: one insert and one delete per
// op, each applied to the in-memory store, swept over a warm table of
// ≈ 350 kept P-SD k=4 answers (3 500 anti-correlated objects, m = 10,
// |Q| = 8), and followed by the repairs the sweep queued — a step of the
// answer's tracked set (core.StepBand) for every answer the insert may
// join, and again when the delete takes the object back out. Entries a
// write evicts are re-filled off the clock between batches of ops, so
// every batch sweeps the same table; repairs/write, invalidations/write,
// fallbacks/write (the part of the invalidations a repair could not make)
// and evictions/write (answers the byte budget dropped) say what the time
// bought.
func BenchmarkDoorWrite(b *testing.B) {
	benchDoorWrite(b, PSD, nil)
}

// BenchmarkDoorWriteOffL2 is BenchmarkDoorWrite where the shield's radius
// farK is +Inf and its rectangle loop alone rules inserts out: P-SD under
// L1, and F+SD under L2.
func BenchmarkDoorWriteOffL2(b *testing.B) {
	b.Run("L1", func(b *testing.B) { benchDoorWrite(b, PSD, geom.Manhattan) })
	b.Run("FPlusSD", func(b *testing.B) { benchDoorWrite(b, FPlusSD, nil) })
}

// benchDoorWrite is BenchmarkDoorWrite with its answers' operator and
// metric (nil for Euclidean).
func benchDoorWrite(b *testing.B, op core.Operator, m geom.Metric) {
	const batch = 64 // ops between two reads of the table's size
	ds := datagen.Generate(datagen.Params{N: 3500, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed})
	store, err := front.NewMemStore(ds.Objects)
	if err != nil {
		b.Fatal(err)
	}
	door := front.NewDoor(store, front.DoorConfig{})
	queries := ds.Queries(350, 8, 200, benchSeed+101)
	opts := core.SearchOptions{Filters: AllFilters, Metric: m}
	warm := func() {
		for _, q := range queries {
			if _, err := door.SearchKCtx(context.Background(), q, op, 4, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm()
	extra := datagen.Generate(datagen.Params{N: 256, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed + 7})
	writes := make([]*uncertain.Object, len(extra.Objects))
	for i, o := range extra.Objects {
		writes[i] = uncertain.MustNew(len(ds.Objects)+1+i, o.Points(), o.Probs())
	}
	start := door.Stats().Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := writes[i%len(writes)]
		if err := door.Insert(o); err != nil {
			b.Fatal(err)
		}
		if ok, err := door.Delete(o.ID()); err != nil || !ok {
			b.Fatalf("delete(%d) = %v, %v", o.ID(), ok, err)
		}
		if (i+1)%batch == 0 {
			b.StopTimer()
			if door.Stats().Cache.Entries < start.Entries {
				warm()
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(start.Entries), "entries")
	end := door.Stats().Cache
	b.ReportMetric(float64(end.Invalidations-start.Invalidations)/float64(2*b.N), "invalidations/write")
	b.ReportMetric(float64(end.RepairFallbacks-start.RepairFallbacks)/float64(2*b.N), "fallbacks/write")
	b.ReportMetric(float64(end.Evictions-start.Evictions)/float64(2*b.N), "evictions/write")
	b.ReportMetric(float64(end.Repairs-start.Repairs)/float64(2*b.N), "repairs/write")
}

// BenchmarkBandStep is the repair layer of BenchmarkDoorWrite on its own:
// it folds one insert into a kept basis, by core.StepBand and, for
// comparison, by core.MergeShardBands over the same union. Each of the 350
// P-SD queries of BenchmarkDoorWrite keeps its (k+4)-skyband at k = 4 —
// the answer and the out members a widened fill tracks — and is given the
// first object of a second draw that its answer's shield cannot rule out.
// checks/op counts the dominance checks one fold asks, stat-prunes/op the
// part of them rung 1 decides.
func BenchmarkBandStep(b *testing.B) {
	const k, spare = 4, 4
	ds := datagen.Generate(datagen.Params{N: 3500, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed})
	idx, err := core.NewIndex(ds.Objects)
	if err != nil {
		b.Fatal(err)
	}
	extra := datagen.Generate(datagen.Params{N: 2000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed + 7})
	opts := core.SearchOptions{Filters: AllFilters}
	type basis struct {
		q     *uncertain.Object
		band  core.TrackedBand
		union []*uncertain.Object
		add   []*uncertain.Object
	}
	var bases []basis
	for _, q := range ds.Queries(350, 8, 200, benchSeed+101) {
		wide := searchK(idx, q, PSD, k+spare, opts)
		var bs basis
		bs.q = q
		for _, c := range wide.Candidates {
			bs.union = append(bs.union, c.Object)
			if c.Dominators < k {
				c.Rank = len(bs.band.Answer)
				bs.band.Answer = append(bs.band.Answer, c)
			} else {
				bs.band.Out = append(bs.band.Out, c.Object)
				bs.band.OutDominators = append(bs.band.OutDominators, int32(c.Dominators))
			}
		}
		shield := core.NewAnswerShield(q, PSD, nil, k, bs.band.Answer)
		for i, o := range extra.Objects {
			if !shield.ShieldsInsert(o.MBR()) {
				bs.add = []*uncertain.Object{uncertain.MustNew(len(ds.Objects)+1+i, o.Points(), o.Probs())}
				break
			}
		}
		if bs.add != nil {
			bases = append(bases, bs)
		}
	}
	if len(bases) == 0 {
		b.Fatal("every insert was shielded")
	}
	b.Run("step", func(b *testing.B) {
		var checks, prunes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs := &bases[i%len(bases)]
			_, res := core.StepBand(bs.q, PSD, k, opts, bs.band, bs.add, nil)
			checks += res.Stats.DominanceChecks
			prunes += res.Stats.StatPrunes
		}
		b.ReportMetric(float64(len(bases)), "bases")
		b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
		b.ReportMetric(float64(prunes)/float64(b.N), "stat-prunes/op")
	})
	b.Run("merge", func(b *testing.B) {
		var checks, prunes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs := &bases[i%len(bases)]
			res, err := core.MergeShardBands(context.Background(), bs.q, PSD, k, opts, [][]*uncertain.Object{bs.union, bs.add})
			if err != nil {
				b.Fatal(err)
			}
			checks += res.Stats.DominanceChecks
			prunes += res.Stats.StatPrunes
		}
		b.ReportMetric(float64(len(bases)), "bases")
		b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
		b.ReportMetric(float64(prunes)/float64(b.N), "stat-prunes/op")
	})
}

// BenchmarkIndexBuild times global R-tree construction.
func BenchmarkIndexBuild(b *testing.B) {
	ds := datagen.Generate(defaultParams(datagen.AntiCorrelated, benchN))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewIndex(ds.Objects); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchK — cost of the k-skyband extension as k grows.
func BenchmarkSearchK(b *testing.B) {
	p := defaultParams(datagen.AntiCorrelated, benchN)
	d := dataFor(b, "A-N", p, benchMq, benchHq)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var candidates float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := searchK(d.idx, d.queries[i%len(d.queries)], SSSD, k, core.SearchOptions{Filters: AllFilters})
				candidates += float64(len(res.Candidates))
			}
			b.ReportMetric(candidates/float64(b.N), "candidates/query")
		})
	}
	// The shape of the repo benchmark's disk_cold workload (bench/wl_disk.go):
	// S-SD on a 10 000 × 10 page file reopened with a 64-frame pool, so that
	// every query goes to the file for its objects.
	b.Run("disk-cold", func(b *testing.B) {
		ds := datagen.Generate(datagen.Params{N: 10000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed})
		queries := ds.Queries(32, 8, 200, benchSeed+101)
		path := filepath.Join(b.TempDir(), "cold.pg")
		built, err := BuildDiskIndex(path, ds.Objects, 256)
		if err != nil {
			b.Fatal(err)
		}
		if err := built.Close(); err != nil {
			b.Fatal(err)
		}
		disk, err := OpenDiskIndex(path, 64)
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		var candidates, examined, reads, buckets, builds float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := disk.SearchKCtx(context.Background(), queries[i%len(queries)], SSD, 1, core.SearchOptions{Filters: AllFilters})
			if err != nil {
				b.Fatal(err)
			}
			candidates += float64(len(res.Candidates))
			examined += float64(res.Examined)
			reads += float64(res.IO.Reads)
			buckets += float64(res.Stats.BucketDecisions)
			builds += float64(res.Stats.MixtureBuilds)
		}
		if buckets == 0 {
			b.Fatal("rung 1a decided no pair: every S-SD check went to the exact test")
		}
		b.ReportMetric(candidates/float64(b.N), "candidates/query")
		b.ReportMetric(examined/float64(b.N), "examined/query")
		b.ReportMetric(reads/float64(b.N), "page-reads/query")
		b.ReportMetric(buckets/float64(b.N), "bucket-decisions/query")
		b.ReportMetric(builds/float64(b.N), "mixture-builds/query")
	})
}

// countingWAL counts the writes the log makes to its file and their bytes.
type countingWAL struct {
	*os.File
	writes int
	bytes  int64
}

func (c *countingWAL) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return c.File.WriteAt(p, off)
}

// BenchmarkCommit — one committed insert or delete on the mutable disk
// index: the shape of the repo benchmark's disk_write workload
// (bench/wl_disk.go), a 10 000 × 10 page file opened writable with a pool
// that holds all of it, objects from the same distribution inserted and
// then deleted again. allocs/op and B/op are per commit, and so are the
// log's writes and bytes (wal-writes/commit, wal-bytes/commit) and the
// page installs that found their frame pinned and fell back to a copy
// (frame-copies/commit, 0 with a single writer and no reader), which are
// what this benchmark is for. Its ns/op measures the fsync of the file
// system b.TempDir() sits on: ≈ 175–240 µs/op on an ext4 virtual disk
// against ≈ 40 µs on tmpfs (TMPDIR=/dev/shm), 2-proc x86-64. The repo
// benchmark's disk_write workload gives the commit path's timing; this
// benchmark gives its counts.
func BenchmarkCommit(b *testing.B) {
	ds := datagen.Generate(datagen.Params{N: 10000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed})
	extra := datagen.Generate(datagen.Params{N: 5000, Dim: 3, M: 10, Centers: datagen.AntiCorrelated, Seed: benchSeed + 7}).Objects
	for i, o := range extra {
		extra[i] = uncertain.MustNew(len(ds.Objects)+1+i, o.Points(), o.Probs())
	}
	path := filepath.Join(b.TempDir(), "write.pg")
	built, err := BuildDiskIndex(path, ds.Objects, 256)
	if err != nil {
		b.Fatal(err)
	}
	if err := built.Close(); err != nil {
		b.Fatal(err)
	}
	var log *countingWAL
	ix, err := diskindex.OpenFileMutable(path, &diskindex.MutableOptions{
		Frames:  4096,
		WALWrap: func(f *os.File) wal.File { log = &countingWAL{File: f}; return log },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	log.writes, log.bytes = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := extra[i%len(extra)]
		if i/len(extra)%2 == 0 {
			err = ix.Insert(o)
		} else {
			_, err = ix.Delete(o.ID())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(log.writes)/float64(b.N), "wal-writes/commit")
	b.ReportMetric(float64(log.bytes)/float64(b.N), "wal-bytes/commit")
	b.ReportMetric(float64(ix.FrameCopies())/float64(b.N), "frame-copies/commit")
}

// BenchmarkTable2 — one search at the paper's Table 2 object and query
// sizes, m_d ∈ {20, 40} and m_q = 30, for each operator, over an
// anti-correlated and a HOUSE-like dataset in turn (fixed seed). At these
// sizes S-SD's and SS-SD's scans run over |Q|·m atoms and P-SD's transport
// is |hull| × m wide, which no m = 10 benchmark reaches. It reports the
// dominance counters and the examined objects per query (S-SD's mass
// prunes, its mass rung's decisions and its U_Q builds among them) and a
// digest of every query's candidate
// IDs, so a change to the kernels can show the answers did not move; it
// fails if P-SD at m_d = 40 makes no flow solve, the sign that the
// benchmark has left the regime it was sized for. The datasets are
// scaled down from the paper's 100 000 objects so that
// `go test -bench Table2 -benchtime 20x` finishes in well under a minute.
// `make check` runs it once (-benchtime 1x).
func BenchmarkTable2(b *testing.B) {
	const n, mq = 10000, 30
	// The candidate digest of each operator and m_d: a change that moves
	// one changes some answer, and fails the run.
	digests := map[string]uint32{
		"SSD/md=20": 3088908217, "SSD/md=40": 3959687459,
		"SSSD/md=20": 3973768685, "SSSD/md=40": 288590128,
		"PSD/md=20": 2854367143, "PSD/md=40": 925129024,
		"FSD/md=20": 2903378244, "FSD/md=40": 1138188213,
		"F+SD/md=20": 859986554, "F+SD/md=40": 3253167144,
	}
	for _, md := range []int{20, 40} {
		var sets []benchData
		for _, c := range []datagen.CenterDist{datagen.AntiCorrelated, datagen.HouseLike} {
			p := datagen.Params{N: n, M: md, EdgeLen: benchHd, Centers: c, Seed: benchSeed}
			sets = append(sets, dataFor(b, fmt.Sprintf("table2/%v/md=%d", c, md), p, mq, benchHq))
		}
		for _, op := range Operators {
			name := fmt.Sprintf("%s/md=%d", op, md)
			b.Run(name, func(b *testing.B) {
				opts := core.SearchOptions{Filters: AllFilters}
				h := fnv.New32a()
				for _, d := range sets {
					for _, q := range d.queries {
						ids := searchK(d.idx, q, op, 1, opts).IDs()
						slices.Sort(ids)
						fmt.Fprint(h, ids, ";")
					}
				}
				if got := h.Sum32(); got != digests[name] {
					b.Fatalf("candidate digest %d, want %d: some answer moved", got, digests[name])
				}
				var st core.Stats
				examined := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := sets[i%len(sets)]
					res := searchK(d.idx, d.queries[i/len(sets)%len(d.queries)], op, 1, opts)
					st.Add(res.Stats)
					examined += res.Examined
				}
				b.StopTimer()
				if op == PSD && md == 40 && st.FlowSolves == 0 {
					b.Fatal("P-SD at m_d = 40 made no flow solve: no check reached the exact transport")
				}
				perQuery := func(v int64, unit string) { b.ReportMetric(float64(v)/float64(b.N), unit) }
				perQuery(st.FlowSolves, "flow-solves/query")
				perQuery(st.CoverValidations, "cover-validations/query")
				perQuery(st.IsolationPrunes, "isolation-prunes/query")
				perQuery(st.ScanPrunes, "scan-prunes/query")
				perQuery(st.MassPrunes, "mass-prunes/query")
				perQuery(st.BucketDecisions, "bucket-decisions/query")
				perQuery(st.MixtureBuilds, "mixture-builds/query")
				perQuery(int64(examined), "examined/query")
				b.ReportMetric(float64(h.Sum32()), "candidate-digest")
			})
		}
	}
}

// BenchmarkMetric — dominance-search cost under each distance metric.
func BenchmarkMetric(b *testing.B) {
	p := defaultParams(datagen.AntiCorrelated, benchN)
	d := dataFor(b, "A-N", p, benchMq, benchHq)
	for _, m := range []Metric{Euclidean, Manhattan, Chebyshev} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searchK(d.idx, d.queries[i%len(d.queries)], SSSD, 1,
					core.SearchOptions{Filters: AllFilters, Metric: m})
			}
		})
	}
}

// BenchmarkEMD times one Earth Mover's distance evaluation.
func BenchmarkEMD(b *testing.B) {
	ds := datagen.Generate(defaultParams(datagen.AntiCorrelated, 8))
	qs := ds.Queries(1, benchMq, benchHq, 3)
	f := EMDFunc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Scores(ds.Objects[:1], qs[0])
	}
}

// --- parallel search benchmarks ----------------------------------------------

// parallelWorkers are the sub-benchmark worker counts for the parallel
// search benchmarks; speedup at w>1 requires GOMAXPROCS >= w.
var parallelWorkers = []int{1, 2, 4, 8}

// runParallelSearches distributes b.N searches over w goroutines via a
// shared atomic work index, sized by the benchmark framework.
func runParallelSearches(b *testing.B, s KSearcher, queries []*Object, w int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				if _, err := s.SearchKCtx(context.Background(), queries[i%len(queries)], PSD, 1,
					core.SearchOptions{Filters: AllFilters}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkParallelSearchMem — PSD search throughput on the in-memory
// index as the goroutine count grows.
func BenchmarkParallelSearchMem(b *testing.B) {
	d := dataFor(b, "A-N", defaultParams(datagen.AntiCorrelated, benchN), benchMq, benchHq)
	for _, w := range parallelWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runParallelSearches(b, d.idx, d.queries, w)
		})
	}
}

// BenchmarkParallelSearchDisk — PSD search throughput on the disk index
// (sharded buffer pool, per-search leases) as the goroutine count grows.
// The index is built once outside the timer.
func BenchmarkParallelSearchDisk(b *testing.B) {
	ds := datagen.Generate(defaultParams(datagen.AntiCorrelated, benchN))
	queries := ds.Queries(benchQueries, benchMq, benchHq, benchSeed+7777)
	disk, err := BuildDiskIndex(filepath.Join(b.TempDir(), "bench.pg"), ds.Objects, 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, w := range parallelWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runParallelSearches(b, disk, queries, w)
		})
	}
}

// BenchmarkSearchRunParallelMem — per-query latency under the testing
// package's own RunParallel driver. SetParallelism pins the goroutine
// fan-out (per the bench-hygiene lint rule) so the contention level is
// the same on a laptop and a CI runner.
func BenchmarkSearchRunParallelMem(b *testing.B) {
	d := dataFor(b, "A-N", defaultParams(datagen.AntiCorrelated, benchN), benchMq, benchHq)
	b.ReportAllocs()
	b.SetParallelism(2)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			q := d.queries[i%len(d.queries)]
			if _, err := d.idx.SearchKCtx(context.Background(), q, PSD, 1,
				core.SearchOptions{Filters: AllFilters}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
