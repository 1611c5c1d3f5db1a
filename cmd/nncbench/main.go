// Command nncbench regenerates the figures of the paper's evaluation
// (Section 6 and Appendix C) as text tables.
//
// Usage:
//
//	nncbench -figure=10 -scale=small
//	nncbench -figure=all -scale=tiny -seed=7
//	nncbench -verify -scale=small            # PASS/FAIL shape checks
//	nncbench -figure=16 -format=csv          # machine-readable output
//	nncbench -parallel -workers=1,2,4,8      # QPS scaling → BENCH_parallel.json
//
// Figures: 10, 11a…11f, 12, 13a…13f, 14, 16, plus the extension
// experiments "k" (k-NN candidates) and "io" (disk-resident page I/O).
// Scales: tiny, small, medium, paper (the full Table 2 grid — hours on
// one core).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"spatialdom/internal/harness"
)

func main() {
	var (
		figure     = flag.String("figure", "10", "figure to reproduce ("+strings.Join(harness.Figures(), ", ")+") or 'all'")
		scale      = flag.String("scale", "small", "workload scale: tiny, small, medium, paper")
		seed       = flag.Int64("seed", 20150531, "deterministic generation seed")
		format     = flag.String("format", "text", "output format: text, csv or bars")
		verify     = flag.Bool("verify", false, "run the Appendix C.2 shape checks instead of a figure")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		parallel   = flag.Bool("parallel", false, "run the parallel workload benchmark instead of a figure")
		workers    = flag.String("workers", "1,2,4,8", "comma-separated worker counts for -parallel")
		out        = flag.String("out", "BENCH_parallel.json", "JSON report path for -parallel (empty disables)")
		force      = flag.Bool("force", false, "record the -parallel artifact even at GOMAXPROCS=1 (marked forced_single_proc)")
		gateFlag   = flag.Bool("gate", false, "fail (exit 1) if the -parallel sweep misses the scaling/tail-latency thresholds")
		profiledir = flag.String("profiledir", "", "directory to write raw mutex.prof/block.prof contention profiles from -parallel (empty disables)")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			pprof.WriteHeapProfile(f)
		}()
	}
	if *parallel {
		sc, err := harness.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		counts, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep, cont, err := harness.ParallelBench(sc, *seed, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *profiledir != "" {
			for _, p := range []struct {
				name string
				data []byte
			}{{"mutex.prof", cont.MutexRaw}, {"block.prof", cont.BlockRaw}} {
				if p.data == nil {
					continue
				}
				path := filepath.Join(*profiledir, p.name)
				if err := os.WriteFile(path, p.data, 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
		if *out != "" {
			// A single-core recording cannot demonstrate scaling — every
			// speedup degenerates to ~1× — so refuse to overwrite the
			// checked-in artifact unless explicitly forced, and stamp the
			// forced artifact so readers know what they are looking at.
			if runtime.GOMAXPROCS(0) == 1 && !*force {
				fmt.Fprintln(os.Stderr, "nncbench: GOMAXPROCS=1 — the speedup column is meaningless on one core;"+
					" refusing to write "+*out+" (rerun with -force to record anyway)")
				os.Exit(1)
			}
			rep.ForcedSingleProc = runtime.GOMAXPROCS(0) == 1
			if err := rep.WriteJSON(*out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		if *gateFlag {
			if !rep.Gateable() {
				fmt.Println("scaling gate skipped: GOMAXPROCS=1 (no parallelism to judge)")
				return
			}
			if errs := rep.GateErrors(); len(errs) > 0 {
				for _, e := range errs {
					fmt.Fprintln(os.Stderr, "gate: "+e.Error())
				}
				os.Exit(1)
			}
			fmt.Println("scaling gate passed")
		}
		return
	}
	if *verify {
		sc, err := harness.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := harness.VerifyShapes(sc, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *format != "text" && *format != "csv" && *format != "bars" {
		fmt.Fprintf(os.Stderr, "unknown -format %q\n", *format)
		os.Exit(2)
	}

	sc, err := harness.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	figures := []string{*figure}
	if *figure == "all" {
		figures = harness.Figures()
	}
	for _, fig := range figures {
		start := time.Now()
		var err error
		switch *format {
		case "csv":
			err = harness.FigureCSV(fig, sc, *seed, os.Stdout)
		case "bars":
			fmt.Printf("=== Figure %s (scale=%s, seed=%d) ===\n", fig, *scale, *seed)
			err = harness.FigureBars(fig, sc, *seed, os.Stdout)
		default:
			fmt.Printf("=== Figure %s (scale=%s, seed=%d) ===\n", fig, *scale, *seed)
			err = harness.Figure(fig, sc, *seed, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *format == "text" {
			fmt.Printf("[%.1fs]\n\n", time.Since(start).Seconds())
		}
	}
}

// parseWorkers parses the -workers list ("1,2,4,8") into sorted-as-given
// positive ints.
func parseWorkers(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-workers is empty")
	}
	return counts, nil
}
