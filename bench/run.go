package main

// The run shape shared by every workload: blocks of fresh set-up, a
// warm-up pass, and timed passes over one fixed op list; best-pass
// aggregation; the pass-identity check; and the traced block.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"spatialdom/internal/core"
	"spatialdom/internal/server/front"
	"spatialdom/internal/uncertain"
)

// counts are the exact per-pass event counts. A pass replays a fixed op
// list against a deterministic product, so these must repeat exactly: a
// difference means the passes did not do the same work and their times
// cannot be compared.
type counts struct {
	Digest      uint64 `json:"digest"`       // over every answer's candidate ids, in order
	CacheHits   int64  `json:"cache_hits"`   // buffer-pool hits, or result-cache hits when served
	CacheMisses int64  `json:"cache_misses"` // buffer-pool misses, or result-cache misses when served
	PagesRead   int64  `json:"pages_read"`
	DomChecks   int64  `json:"dominance_checks"`
	WALSyncs    int64  `json:"wal_syncs"`
}

// passResult is what one pass over the op list measured.
type passResult struct {
	wall time.Duration // timed region only
	cpu  time.Duration
	ops  int             // every timed op
	busy time.Duration   // summed client-timed latency of every op
	all  []time.Duration // every op's client-timed latency, in op order
	lat  []time.Duration // the headline ops among them, in op order
	// boundaries are the cumulative shares of headline ops below each
	// latency-mode boundary (empty when the headline op has one mode).
	boundaries []float64
	failed     int
	counts     counts
	mallocs    uint64
	allocBytes uint64

	spanLo int
	spanHi int
	detail passDetail

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

// start and stop bracket a pass's timed region; the workload calls them so
// that untimed tails (restoring the object set) stay outside.
func (p *passResult) start() {
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuTime()
	p.t0 = time.Now()
}

func (p *passResult) stop() {
	p.wall = time.Since(p.t0)
	p.cpu = cpuTime() - p.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mallocs = m.Mallocs - p.ms0.Mallocs
	p.allocBytes = m.TotalAlloc - p.ms0.TotalAlloc
}

// record notes one completed op.
func (p *passResult) record(d time.Duration, headline bool) {
	p.ops++
	p.busy += d
	p.all = append(p.all, d)
	if headline {
		p.lat = append(p.lat, d)
	}
}

func (p *passResult) throughput() float64 { return float64(p.ops) / p.wall.Seconds() }
func (p *passResult) cpuPerOp() float64   { return ms(p.cpu) / float64(p.ops) } // ms

// passDetail is what a workload keeps about one pass for its per-layer
// metrics, beyond what every workload reports.
type passDetail struct {
	stats    core.Stats // summed over the pass's searches
	io       core.IOStats
	examined int
	cands    int
	queries  int // query ops in the pass, headline or not

	// disk_write
	checkpoints int
	ckptReqs    []int32 // traced: request ids of the commits that checkpointed
	pageWrites  int64
	walBytes    int64

	// served_mixed
	writes          int
	reqBytes        int64
	respBytes       int64
	door            front.DoorStats // delta over the pass; entries and bytes as at its end
	hitLat, missLat []time.Duration
}

// replaySample is one query with its answer, for the Dominates replay.
type replaySample struct {
	q     *uncertain.Object
	op    core.Operator
	cands []*uncertain.Object
}

// workload is one of the four benchmark workloads. The runner drives it
// through generate → build → pass… → finish → close once per block.
type workload interface {
	// generate derives the block's inputs from the seed. Untimed.
	generate(seed int64)
	// build sets the product up from nothing in dir; tr is nil except in
	// the traced block, where the workload installs its decorators.
	build(ctx context.Context, dir string, tr *tracer) error
	// verify is the correctness gate: sampled answers against
	// core.BruteForceK on the live object set.
	verify(ctx context.Context) (checked, failed int, err error)
	// pass replays the op list once.
	pass(ctx context.Context, p *passResult) error
	// finish runs the end-of-block checks; the product is still open.
	finish(ctx context.Context) (checked, failed int, err error)
	close() error
	// evolves reports that the product's state differs from one pass start
	// to the next although the object set does not, so that exact counts
	// repeat per pass index across blocks and not from pass to pass.
	evolves() bool
	// layers derives the per-layer metrics from a traced pass and returns
	// the time those metrics account for (the sum of the self times it
	// named), which the runner sets against the client-timed total.
	layers(p *passResult, tr *tracer, m map[string]float64) (accounted time.Duration)
	// replaySamples returns sampled queries with their candidate objects.
	replaySamples(ctx context.Context) ([]replaySample, error)
}

// result is everything one workload's run produced.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted_ops"`
	Failed    int                `json:"failed_ops"`
	Blocks    int                `json:"blocks"`
	Passes    int                `json:"passes"`
	Headline  int                `json:"headline_ops_per_pass"` // samples behind op_p50_ms
	Beyond95  int                `json:"samples_beyond_p95"`
	PassWallS []float64          `json:"pass_wall_s"`
	Counts    counts             `json:"counts"`
	E2E       map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (r *result) problem(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// blockOutcome carries what one block measured back to runWorkload.
type blockOutcome struct {
	setup, buildT, warm time.Duration
	passes              []passResult
	heapLive            uint64
	// Dominates replay, traced block only: microseconds per check with
	// every filter and with none.
	replayAll, replayNone float64
}

type runner struct {
	cfg config
	sz  sizes
	res *result
	ref []counts // reference counts per pass index (one entry unless the workload evolves)
}

// runWorkload runs the untraced blocks, then (when asked) the traced one.
func runWorkload(ctx context.Context, name string, cfg config) (*result, error) {
	sz := sizesFor(cfg.scale)
	r := &runner{cfg: cfg, sz: sz, res: &result{Workload: name}}
	res := r.res

	blocks := sz.blocks
	if cfg.trace == 1 {
		blocks = 1 // only a reference for trace.overhead_pct
	}
	passes := max(sz.minPasses, int(cfg.seconds/nominalPassSeconds)/sz.blocks)

	var outs []blockOutcome
	for b := 0; b < blocks; b++ {
		w, err := newWorkload(name, sz)
		if err != nil {
			return nil, err
		}
		out, err := r.block(ctx, w, b, nil, passes, b == blocks-1)
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", name, b, err)
		}
		outs = append(outs, out)
	}

	// Best pass, assembled op by op. Every pass replays the same op list
	// against the same state, so op i is the same work in every pass, and
	// interference on a shared box only ever adds time: the shortest of op
	// i's executions is the steadiest estimate of what op i costs. The
	// percentiles are taken over those per-op minima, and throughput is the
	// op count over their sum plus the least time any pass spent between
	// ops. CPU time cannot be split by op (the collector runs beside them),
	// so it is the best whole pass; set-up is the best block.
	first := outs[0].passes[0]
	bestLat, bestAll := slices.Clone(first.lat), slices.Clone(first.all)
	setup, idle := outs[0].setup, first.wall-first.busy
	cpuPerOp, passTput := first.cpuPerOp(), first.throughput()
	for _, o := range outs {
		setup = min(setup, o.setup)
		for _, p := range o.passes {
			res.PassWallS = append(res.PassWallS, p.wall.Seconds())
			for i, d := range p.lat {
				bestLat[i] = min(bestLat[i], d)
			}
			for i, d := range p.all {
				bestAll[i] = min(bestAll[i], d)
			}
			idle = min(idle, p.wall-p.busy)
			cpuPerOp, passTput = min(cpuPerOp, p.cpuPerOp()), max(passTput, p.throughput())
		}
	}
	slices.Sort(bestLat)
	var busy time.Duration
	for _, d := range bestAll {
		busy += d
	}
	res.Blocks = len(outs)
	res.Passes = len(res.PassWallS)
	res.Headline = len(first.lat)
	res.Beyond95 = len(first.lat) - 1 - nearestRank(len(first.lat), 0.95)
	res.Counts = first.counts
	if cfg.scale == "full" {
		if res.Headline < 200 {
			res.problem("only %d headline ops per pass; p95 needs at least 200", res.Headline)
		}
		if cfg.trace != 1 && res.Passes < 8 {
			res.problem("only %d timed passes; need at least 8", res.Passes)
		}
	}
	if err := checkModeBoundaries(first.boundaries); err != nil {
		res.problem("%v", err)
	}

	if cfg.trace != 1 {
		res.E2E = map[string]float64{
			"setup_s":        setup.Seconds(),
			"op_p50_ms":      ms(percentile(bestLat, 0.50)),
			"op_p95_ms":      ms(percentile(bestLat, 0.95)),
			"throughput_ops": float64(len(bestAll)) / (busy + idle).Seconds(),
			"cpu_ms_per_op":  cpuPerOp,
			"heap_live_mb":   float64(outs[len(outs)-1].heapLive) / (1 << 20),
		}
	}

	if cfg.trace != 0 {
		if err := r.tracedBlock(ctx, name, passTput); err != nil {
			return nil, fmt.Errorf("%s traced block: %w", name, err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// block runs one block: fresh set-up, warm-up pass, the timed passes, then
// the correctness checks.
func (r *runner) block(ctx context.Context, w workload, index int, tr *tracer, passes int, last bool) (out blockOutcome, err error) {
	res := r.res
	dir, err := os.MkdirTemp(r.cfg.workDir, "bench-tmp-"+res.Workload+"-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	w.generate(r.cfg.seed)

	t0 := time.Now()
	if err := w.build(ctx, dir, tr); err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	out.buildT = time.Since(t0)
	var warm passResult
	if err := w.pass(ctx, &warm); err != nil {
		return out, fmt.Errorf("warm-up pass: %w", err)
	}
	out.setup = time.Since(t0)
	out.warm = out.setup - out.buildT
	res.Attempted += warm.ops
	res.Failed += warm.failed

	runtime.GC()
	for i := 0; i < passes; i++ {
		var p passResult
		if tr != nil {
			p.spanLo = tr.mark()
		}
		if err := w.pass(ctx, &p); err != nil {
			return out, fmt.Errorf("pass %d: %w", i, err)
		}
		if tr != nil {
			p.spanHi = tr.mark()
		}
		res.Attempted += p.ops
		res.Failed += p.failed
		// Where the product's state is the same at every pass start, every
		// pass is held to the first one; where it evolves, pass i of every
		// block is held to pass i of the first block.
		ri := 0
		if w.evolves() {
			ri = i
		}
		if ri == len(r.ref) {
			r.ref = append(r.ref, p.counts)
		} else if p.counts != r.ref[ri] {
			res.problem("block %d pass %d (traced=%v) counts %+v differ from the reference %+v", index, i, tr != nil, p.counts, r.ref[ri])
		}
		out.passes = append(out.passes, p)
	}

	if last {
		runtime.GC()
		runtime.GC() // the second cycle drops what sync.Pool kept alive across the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		out.heapLive = m.HeapAlloc
	}
	// The correctness gate runs after the timed passes of the first block,
	// not before them: its extra queries would otherwise leave the caches
	// in a state no other pass starts from, and the first pass's counts
	// would differ from every later one's.
	if index == 0 && tr == nil {
		checked, failed, err := w.verify(ctx)
		if err != nil {
			return out, fmt.Errorf("verify: %w", err)
		}
		res.Attempted += checked
		res.Failed += failed
	}
	if tr != nil {
		samples, err := w.replaySamples(ctx)
		if err != nil {
			return out, fmt.Errorf("replay samples: %w", err)
		}
		out.replayAll = replayDominates(samples, core.AllFilters)
		out.replayNone = replayDominates(samples, core.FilterConfig{})
	}
	checked, failed, err := w.finish(ctx)
	if err != nil {
		return out, fmt.Errorf("finish: %w", err)
	}
	res.Attempted += checked
	res.Failed += failed
	runtime.KeepAlive(w)
	return out, nil
}

// tracedBlock runs one more block with the decorators installed, takes the
// per-layer numbers from its faster pass, and dumps that pass's spans.
func (r *runner) tracedBlock(ctx context.Context, name string, untracedOps float64) error {
	res := r.res
	w, err := newWorkload(name, r.sz)
	if err != nil {
		return err
	}
	tr := newTracer(r.sz.spanCap)
	out, err := r.block(ctx, w, 0, tr, 2, false)
	if err != nil {
		return err
	}
	p := &out.passes[0]
	if out.passes[1].wall < p.wall {
		p = &out.passes[1]
	}
	m := map[string]float64{}
	for _, n := range layerMetricNames {
		m[n] = 0
	}
	accounted := w.layers(p, tr, m)
	m["setup.build_s"] = out.buildT.Seconds()
	m["setup.warm_s"] = out.warm.Seconds()
	m["trace.overhead_pct"] = 100 * (untracedOps - p.throughput()) / untracedOps
	m["trace.residual_pct"] = 100 * float64(p.busy-accounted) / float64(p.busy)
	m["core.dominates_replay_us"], m["core.dominates_nofilter_us"] = out.replayAll, out.replayNone
	res.Layers = m

	if r.cfg.out != "" {
		if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(r.cfg.out, name+".trace.json")
		if err := tr.dump(path, p.spanLo, p.spanHi); err != nil {
			return err
		}
		res.TraceFile = path
	}
	return nil
}

// replayCandCap bounds the candidates replayed per query: the overlapping
// workload answers with ~150 candidates, and 22 000 unfiltered checks per
// query would cost more than the run itself.
const replayCandCap = 48

// replayDominates is seam (f): Checker.Dominates over the ordered candidate
// pairs of sampled queries, under one filter configuration — the paper's
// Figure 16 ablation in microseconds per check.
func replayDominates(samples []replaySample, cfg core.FilterConfig) float64 {
	var checks int
	var spent time.Duration
	for _, s := range samples {
		cands := s.cands
		if len(cands) > replayCandCap {
			cands = cands[:replayCandCap]
		}
		// A fresh checker per query, as in a search: its per-object
		// caches fill during the sweep and are part of the cost.
		ck := core.NewChecker(s.q, s.op, cfg)
		t0 := time.Now()
		for _, u := range cands {
			for _, v := range cands {
				if u != v {
					ck.Dominates(u, v)
					checks++
				}
			}
		}
		spent += time.Since(t0)
	}
	if checks == 0 {
		return 0
	}
	return us(spent) / float64(checks)
}
