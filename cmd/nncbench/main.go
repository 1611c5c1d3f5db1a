// Command nncbench regenerates the figures of the paper's evaluation
// (Section 6 and Appendix C) as text tables.
//
// Usage:
//
//	nncbench -figure=10 -scale=small
//	nncbench -figure=all -scale=tiny -seed=7
//	nncbench -verify -scale=small            # PASS/FAIL shape checks
//	nncbench -figure=16 -format=csv          # machine-readable output
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
	"runtime"
	"runtime/pprof"
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
