// Command bench is the repository's one benchmark: four seeded,
// single-client, closed-loop workloads that each report the same six
// end-to-end metrics, plus a traced block per workload that decomposes an
// operation into per-layer spans through seams the product already has.
// See README.md in this directory for every metric's definition.
//
//	go run ./bench                         # all four workloads, text report
//	go run ./bench -workload disk_cold     # one workload
//	go run ./bench -aa 5                   # A/A self-check (bench/NOISE.md)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"time"
)

// metricDef is one end-to-end metric as BENCHMARK.json records it: bound is
// the share of the parent's median by which it may worsen before a change
// counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the six metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
}

var workloadNames = []string{"mem_overlap", "disk_cold", "disk_write", "served_mixed"}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // timed seconds the run aims for; sets the passes per block
	scale   string  // "full" or "tiny"
	trace   int     // 0 end-to-end only, 1 per-layer only, 2 both
	out     string  // directory for span dumps
	workDir string  // parent of the per-block scratch directories
	storage string  // "tmpfs" or "disk": what workDir is on
}

// sizes are the workload dimensions at one scale. The full-scale numbers
// were calibrated once on a 2-core box to passes of 1.5–3 s and are frozen:
// metric names only mean something across commits while these stay put.
type sizes struct {
	blocks, minPasses, spanCap int

	memN, memM, memQueries int

	diskN, diskM, diskQueries int
	coldFrames, coldObjCache  int

	writeOps, writeQueryEvery, writeFrames int

	servedN, servedM, servedPool, servedRequests, servedWriteEvery int
}

func sizesFor(scale string) sizes {
	if scale == "tiny" {
		return sizes{
			blocks: 2, minPasses: 2, spanCap: 1 << 16,
			memN: 60, memM: 6, memQueries: 20,
			diskN: 600, diskM: 6, diskQueries: 20, coldFrames: 8, coldObjCache: 8,
			writeOps: 60, writeQueryEvery: 20, writeFrames: 4096,
			servedN: 300, servedM: 6, servedPool: 60, servedRequests: 100, servedWriteEvery: 10,
		}
	}
	return sizes{
		blocks: 3, minPasses: 3, spanCap: 1 << 20,
		memN: 200, memM: 10, memQueries: 200,
		diskN: 10000, diskM: 10, diskQueries: 200, coldFrames: 64, coldObjCache: 64,
		writeOps: 5000, writeQueryEvery: 200, writeFrames: 4096,
		servedN: 3500, servedM: 10, servedPool: 2000, servedRequests: 2000, servedWriteEvery: 10,
	}
}

var errUnknownWorkload = errors.New("unknown workload")

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "mem_overlap":
		return &memOverlap{sz: sz}, nil
	case "disk_cold":
		return &diskCold{diskFile: diskFile{sz: sz}}, nil
	case "disk_write":
		return &diskWrite{diskFile: diskFile{sz: sz}}, nil
	case "served_mixed":
		return &servedMixed{sz: sz}, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", errUnknownWorkload, name, strings.Join(workloadNames, ", "))
}

// stamp records where and how a report was produced.
type stamp struct {
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Storage    string  `json:"storage"`
	WorkDir    string  `json:"work_dir"`
	Commit     string  `json:"git_commit"`
}

// report is the -json file.
type report struct {
	Stamp     stamp     `json:"stamp"`
	Workloads []*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	workloadFlag := fs.String("workload", "", "run one workload (default: all of "+strings.Join(workloadNames, ", ")+")")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "seconds of timed passes per workload")
	fs.IntVar(&cfg.trace, "trace", 2, "0: end-to-end metrics only; 1: per-layer metrics only; 2: both")
	fs.StringVar(&cfg.out, "out", "bench_out", "directory for the span dumps (<workload>.trace.json)")
	fs.StringVar(&cfg.scale, "scale", "full", "full, or tiny for tests")
	jsonPath := fs.String("json", "", "also write the full report to this file")
	aa := fs.Int("aa", 0, "A/A self-check: run 2×N end-to-end invocations A,B,A,B… and compare the two sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.trace < 0 || cfg.trace > 2 || (cfg.scale != "full" && cfg.scale != "tiny") {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	names := workloadNames
	if *workloadFlag != "" {
		if _, err := newWorkload(*workloadFlag, sizes{}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		names = []string{*workloadFlag}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *aa > 0 {
		return runAA(ctx, *aa, cfg, names, stdout, stderr)
	}

	cfg.workDir, cfg.storage = scratchRoot()
	rep := report{Stamp: newStamp(ctx, cfg)}
	printStamp(stdout, rep.Stamp)
	code := 0
	for _, name := range names {
		res, err := runWorkload(ctx, name, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
		printResult(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// defaultSeconds matches run_seconds in BENCHMARK.json. nominalPassSeconds
// is the pass length the full-scale sizes were calibrated to: a run times
// seconds/nominalPassSeconds passes, split evenly over the blocks, so the
// work done depends on the flag alone and never on how fast the box is
// today.
const (
	defaultSeconds     = 15
	nominalPassSeconds = 1.6
)

// scratchRoot picks where the disk workloads put their files: /dev/shm
// when it is writable, because a real disk's fsync time swings far more
// from run to run than anything this benchmark is meant to resolve; the
// working directory otherwise.
func scratchRoot() (dir, kind string) {
	if probe, err := os.MkdirTemp("/dev/shm", "bench-tmp-probe-"); err == nil {
		os.Remove(probe)
		return "/dev/shm", "tmpfs"
	}
	return ".", "disk"
}

func newStamp(ctx context.Context, cfg config) stamp {
	return stamp{
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Storage: cfg.storage, WorkDir: cfg.workDir, Commit: gitCommit(ctx),
	}
}

// gitCommit asks git for HEAD; a checkout without git reports "unknown".
func gitCommit(ctx context.Context) string {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printStamp(w io.Writer, s stamp) {
	fmt.Fprintf(w, "bench: seed=%d scale=%s seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s storage=%s(%s) commit=%s\n",
		s.Seed, s.Scale, s.Seconds, s.Trace, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Storage, s.WorkDir, s.Commit)
}

// printResult writes one workload's text report and, as its last line,
// the one-object JSON summary: the end-to-end metrics, or the per-layer
// ones when only those were asked for.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Workload)
	fmt.Fprintf(w, "attempted_ops=%d failed_ops=%d blocks=%d passes=%d headline_ops_per_pass=%d samples_beyond_p95=%d\n",
		r.Attempted, r.Failed, r.Blocks, r.Passes, r.Headline, r.Beyond95)
	fmt.Fprintf(w, "counts: digest=%016x cache_hits=%d cache_misses=%d pages_read=%d dominance_checks=%d wal_syncs=%d\n",
		r.Counts.Digest, r.Counts.CacheHits, r.Counts.CacheMisses, r.Counts.PagesRead, r.Counts.DomChecks, r.Counts.WALSyncs)
	fmt.Fprintf(w, "pass_wall_s:")
	for _, s := range r.PassWallS {
		fmt.Fprintf(w, " %.3f", s)
	}
	fmt.Fprintln(w)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	metrics := map[string]metricJSON{}
	if r.E2E != nil {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, r.E2E[d.name], d.unit)
			metrics[d.name] = metricJSON{r.E2E[d.name], d.unit}
		}
	}
	if r.Layers != nil {
		for _, n := range layerMetricNames {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", n, r.Layers[n], layerUnit(n))
			if r.E2E == nil {
				metrics[n] = metricJSON{r.Layers[n], layerUnit(n)}
			}
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "spans: %s\n", r.TraceFile)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
