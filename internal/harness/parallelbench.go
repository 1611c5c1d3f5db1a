package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
)

// BackendSweep is one backend's worker-count sweep in a parallel report.
type BackendSweep struct {
	Backend string        `json:"backend"` // "mem" or "disk"
	Points  []WorkerPoint `json:"points"`
}

// ParallelReport is the machine-readable outcome of the parallel workload
// benchmark (nncbench -parallel → BENCH_parallel.json). GOMAXPROCS is
// recorded because the speedup ceiling is min(workers, GOMAXPROCS): on a
// single-core box every point degenerates to ~1×, and only a multi-core
// reading demonstrates scaling.
type ParallelReport struct {
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the hardware parallelism the process could see; it bounds
	// every speedup claim the artifact makes.
	NumCPU int `json:"num_cpu"`
	// ForcedSingleProc marks an artifact recorded on a single-core box
	// with -force: the speedup column is meaningless there (ceiling 1×)
	// and must not be read as a scaling regression.
	ForcedSingleProc bool `json:"forced_single_proc,omitempty"`
	// Warmed records that pools, caches and lazily built structures were
	// exercised before the measured sweep, so the first point is steady
	// state and its allocs/op is comparable to every other point's.
	Warmed   bool           `json:"warmed"`
	Queries  int            `json:"queries"`
	Operator string         `json:"operator"`
	Backends []BackendSweep `json:"backends"`
	// Mutex and Block summarize lock and blocking contention over the
	// whole sweep (all backends, all points): total contention-seconds
	// plus the top contended sites.
	Mutex *ContentionSummary `json:"mutex,omitempty"`
	Block *ContentionSummary `json:"block,omitempty"`
}

// replicateQueries tiles the workload up to at least want queries so each
// sweep point has enough work to amortize goroutine startup; the same
// query objects repeat, which is fine for throughput measurement.
func replicateQueries(qs []*uncertain.Object, want int) []*uncertain.Object {
	if len(qs) == 0 || len(qs) >= want {
		return qs
	}
	out := make([]*uncertain.Object, 0, want)
	for len(out) < want {
		out = append(out, qs...)
	}
	return out[:want]
}

// ParallelBench sweeps the PSD workload over the worker counts on both
// backends (in-memory index; disk index in a throwaway page file) and
// returns the report with contention summaries attached. The disk pool is
// sized generously so the sweep measures concurrency overhead, not
// eviction thrash. Raw pprof bytes of the contention profiles are
// returned alongside for artifact upload.
func ParallelBench(sc Scale, seed int64, workers []int) (*ParallelReport, Contention, error) {
	sp := specFor(sc)
	ds := datagen.Generate(datagen.Params{
		N: sp.N, M: sp.Md, EdgeLen: sp.Hd, Centers: datagen.AntiCorrelated, Seed: seed,
	})
	queries := replicateQueries(ds.Queries(sp.Queries, sp.Mq, sp.Hq, seed+7777), 128)

	mem, err := core.NewIndex(ds.Objects)
	if err != nil {
		return nil, Contention{}, err
	}

	dir, err := os.MkdirTemp("", "spatialdom-par-*")
	if err != nil {
		return nil, Contention{}, err
	}
	defer os.RemoveAll(dir)
	pf, err := pager.Create(filepath.Join(dir, "idx.pg"), pager.PageSize)
	if err != nil {
		return nil, Contention{}, err
	}
	defer pf.Close()
	disk, err := diskindex.Build(pager.NewPool(pf, 1024), ds.Objects)
	if err != nil {
		return nil, Contention{}, err
	}

	scaleName := map[Scale]string{Tiny: "tiny", Small: "small", Medium: "medium", Paper: "paper"}[sc]
	rep := &ParallelReport{
		Scale:      scaleName,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Queries:    len(queries),
		Operator:   core.PSD.String(),
	}
	backends := []struct {
		name string
		s    core.KSearcher
	}{{"mem", mem}, {"disk", disk}}

	// Warm pools, lazily built caches (rtree level slices, hulls, dense
	// spans) and the page pool's frames before anything is measured: the
	// workers=1 point must measure steady state, not cold start. One pass
	// at the sweep's widest parallelism touches every per-worker arena the
	// measured run will use.
	maxWorkers := 1
	for _, w := range workers {
		if w > maxWorkers {
			maxWorkers = w
		}
	}
	for _, b := range backends {
		RunWorkloadParallelOn(b.s, queries, core.PSD, core.AllFilters, maxWorkers)
		RunWorkloadOn(b.s, queries[:min(len(queries), 16)], core.PSD, core.AllFilters)
	}
	rep.Warmed = true

	// The measured sweep, with contention profiling on.
	cont := CaptureContention(func() {
		for _, b := range backends {
			rep.Backends = append(rep.Backends, BackendSweep{
				Backend: b.name,
				Points:  WorkerSweep(b.s, queries, core.PSD, core.AllFilters, workers),
			})
		}
	})
	rep.Mutex = &cont.Mutex
	rep.Block = &cont.Block
	return rep, cont, nil
}

// GateErrors applies the scaling and tail-latency acceptance thresholds
// to the report and returns every violation. The gate is hardware-aware:
// a point is only judged when the machine could have satisfied it
// (workers <= GOMAXPROCS), and a GOMAXPROCS=1 report returns no errors —
// callers should treat that as "gate not applicable", not "gate passed"
// (Gateable reports which).
//
// Thresholds, on the mem backend (the disk backend shares a physical
// device with unrelated CI noise, so it is reported but not gated):
//
//   - speedup at w workers ≥ 0.7×w for w ≤ 4, ≥ 0.5×w above;
//   - p95 at w workers ≤ 2× the single-worker p95;
//   - p99 at w workers ≤ 3× the single-worker p99.
func (r *ParallelReport) GateErrors() []error {
	if !r.Gateable() {
		return nil
	}
	var errs []error
	for _, b := range r.Backends {
		if b.Backend != "mem" {
			continue
		}
		var base *WorkerPoint
		for i := range b.Points {
			if b.Points[i].Workers == 1 {
				base = &b.Points[i]
				break
			}
		}
		if base == nil {
			errs = append(errs, fmt.Errorf("%s: no workers=1 baseline point in sweep", b.Backend))
			continue
		}
		for _, p := range b.Points {
			if p.Workers <= 1 || p.Workers > r.GOMAXPROCS {
				continue // the hardware can't parallelize past GOMAXPROCS
			}
			factor := 0.7
			if p.Workers > 4 {
				factor = 0.5
			}
			if want := factor * float64(p.Workers); p.Speedup < want {
				errs = append(errs, fmt.Errorf("%s workers=%d: speedup %.2fx < %.2fx (%.0f%% of %d workers)",
					b.Backend, p.Workers, p.Speedup, want, factor*100, p.Workers))
			}
			if base.P95Millis > 0 && p.P95Millis > 2*base.P95Millis {
				errs = append(errs, fmt.Errorf("%s workers=%d: p95 %.3fms > 2x single-worker p95 %.3fms",
					b.Backend, p.Workers, p.P95Millis, base.P95Millis))
			}
			if base.P99Millis > 0 && p.P99Millis > 3*base.P99Millis {
				errs = append(errs, fmt.Errorf("%s workers=%d: p99 %.3fms > 3x single-worker p99 %.3fms",
					b.Backend, p.Workers, p.P99Millis, base.P99Millis))
			}
		}
	}
	return errs
}

// Gateable reports whether the scaling gate is meaningful for this
// report: multi-worker speedup needs more than one processor.
func (r *ParallelReport) Gateable() bool { return r.GOMAXPROCS >= 2 }

// WriteText renders the report as an aligned table per backend, followed
// by the contention summaries.
func (r *ParallelReport) WriteText(w io.Writer) error {
	for i, b := range r.Backends {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t := Table{
			Title: fmt.Sprintf("parallel %s workload, %s backend (%d queries, GOMAXPROCS=%d, warmed=%v)",
				r.Operator, b.Backend, r.Queries, r.GOMAXPROCS, r.Warmed),
			Columns: []string{"workers", "QPS", "p50 (ms)", "p95 (ms)", "p99 (ms)", "speedup", "allocs/op"},
		}
		for _, p := range b.Points {
			t.AddRow(fmt.Sprint(p.Workers),
				fmt.Sprintf("%.1f", p.QPS),
				fmt.Sprintf("%.3f", p.P50Millis),
				fmt.Sprintf("%.3f", p.P95Millis),
				fmt.Sprintf("%.3f", p.P99Millis),
				fmt.Sprintf("%.2fx", p.Speedup),
				fmt.Sprintf("%.1f", p.AllocsPerOp))
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	writeContention(w, "mutex contention", r.Mutex)
	writeContention(w, "block contention", r.Block)
	return nil
}

// writeContention renders one contention summary under the sweep tables.
func writeContention(w io.Writer, title string, c *ContentionSummary) {
	if c == nil {
		return
	}
	fmt.Fprintf(w, "\n%s: %.4fs total\n", title, c.TotalSeconds)
	for _, s := range c.Top {
		fmt.Fprintf(w, "  %10.4fs  %6d  %s\n", s.Seconds, s.Count, s.Site)
	}
}

// WriteJSON writes the report to path with a trailing newline.
func (r *ParallelReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
