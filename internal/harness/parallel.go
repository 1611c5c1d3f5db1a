package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/uncertain"
)

// RunWorkloadParallel is RunWorkload with the queries fanned out over up
// to GOMAXPROCS worker goroutines against the in-memory index; see
// RunWorkloadParallelOn for the general form.
func RunWorkloadParallel(idx *core.Index, queries []*uncertain.Object, op core.Operator, cfg core.FilterConfig) Measurement {
	return RunWorkloadParallelOn(idx, queries, op, cfg, runtime.GOMAXPROCS(0))
}

// RunWorkloadParallelOn runs the workload over any core.KSearcher (memory
// or disk backend) through the real production fan-out —
// core.SearchParallel with per-worker scratch affinity and work
// stealing — so what the sweep measures is exactly what the batch API
// ships. Millis stays the per-query average (comparable to RunWorkload),
// WallMillis is the reduced parallel elapsed time, QPS = queries per
// wall-clock second, and P50/P95/P99Millis are per-query latency
// percentiles under concurrency.
func RunWorkloadParallelOn(s core.KSearcher, queries []*uncertain.Object, op core.Operator, cfg core.FilterConfig, workers int) Measurement {
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		return RunWorkloadOn(s, queries, op, cfg)
	}
	start := time.Now()
	results, err := core.SearchParallel(context.Background(), s, queries, op, 1,
		core.SearchOptions{Filters: cfg}, core.BatchOptions{Workers: workers})
	if err != nil {
		panic(fmt.Sprintf("harness: parallel workload search failed: %v", err))
	}
	var agg Measurement
	agg.WallMillis = float64(time.Since(start)) / float64(time.Millisecond)
	lats := make([]float64, 0, len(results))
	for _, res := range results {
		lat := float64(res.Elapsed) / float64(time.Millisecond)
		lats = append(lats, lat)
		agg.Candidates += float64(len(res.Candidates))
		agg.Millis += lat
		agg.Comparisons += float64(res.Stats.InstanceComparisons)
	}
	if agg.WallMillis > 0 {
		agg.QPS = float64(len(queries)) / (agg.WallMillis / 1000)
	}
	agg.P50Millis = percentile(lats, 50)
	agg.P95Millis = percentile(lats, 95)
	agg.P99Millis = percentile(lats, 99)
	n := float64(len(queries))
	agg.Candidates /= n
	agg.Millis /= n
	agg.Comparisons /= n
	return agg
}

// WorkerPoint is one row of a worker-count sweep: throughput and latency
// percentiles at a given parallelism, with Speedup relative to the sweep's
// single-worker (serialized) baseline.
type WorkerPoint struct {
	Workers   int     `json:"workers"`
	QPS       float64 `json:"qps"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	Speedup   float64 `json:"speedup"`
	// AllocsPerOp is the heap allocations per query over the whole sweep
	// point (runtime.MemStats delta), including the fan-out's own
	// bookkeeping — the steady-state memory-discipline number.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// WorkerSweep runs the same workload at each worker count and reports
// QPS/p50/p95/p99/allocs per point. The first point's QPS is the speedup
// baseline, so pass workers in increasing order starting at 1 for the
// conventional reading. Pools and caches must be warmed before the sweep
// (ParallelBench does) or the first point measures cold-start allocation,
// not steady state.
func WorkerSweep(s core.KSearcher, queries []*uncertain.Object, op core.Operator, cfg core.FilterConfig, workers []int) []WorkerPoint {
	points := make([]WorkerPoint, 0, len(workers))
	var base float64
	for _, w := range workers {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := RunWorkloadParallelOn(s, queries, op, cfg, w)
		runtime.ReadMemStats(&after)
		p := WorkerPoint{Workers: w, QPS: m.QPS,
			P50Millis: m.P50Millis, P95Millis: m.P95Millis, P99Millis: m.P99Millis,
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(len(queries))}
		if base == 0 {
			base = m.QPS
		}
		if base > 0 {
			p.Speedup = m.QPS / base
		}
		points = append(points, p)
	}
	return points
}
