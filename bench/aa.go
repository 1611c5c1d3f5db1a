package main

// The A/A self-check: the same code measured twice must agree with itself
// within the bounds the benchmark records, or no A/B comparison made with
// it means anything.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAA runs 2×n fresh-process invocations interleaved A,B,A,B…; pair i of
// both sides uses seed cfg.seed+i, so each side sees the same n seeds —
// the shape of the acceptance check this benchmark has to pass. For every
// end-to-end metric × workload it prints both sides' medians, their gap,
// each side's inter-quartile spread as a share of its median, and the
// bound. It fails if a gap exceeds its bound or a pair's exact counts
// differ; a spread over its bound (setup_s aside) is printed in bold and
// noted, not failed: with a handful of values per side the quartiles sit
// next to the extremes, and one slow invocation is enough to move them.
func runAA(ctx context.Context, n int, cfg config, names []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, storage := scratchRoot()
	dir, err := os.MkdirTemp(root, "bench-tmp-aa-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	countsOf := [2]map[string][]counts{{}, {}}
	var st stamp
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			out := filepath.Join(dir, "run.json")
			args := []string{"-seed", strconv.FormatInt(cfg.seed+int64(i), 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-scale", cfg.scale, "-trace", "0", "-json", out}
			if len(names) == 1 {
				args = append(args, "-workload", names[0])
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: invocation %c%d: %v\n", 'A'+side, i, err)
				return 1
			}
			data, err := os.ReadFile(out)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			st = rep.Stamp
			for _, r := range rep.Workloads {
				for m, v := range r.E2E {
					k := key{r.Workload, m}
					values[side][k] = append(values[side][k], v)
				}
				countsOf[side][r.Workload] = append(countsOf[side][r.Workload], r.Counts)
			}
			fmt.Fprintf(stderr, "bench: invocation %c%d done\n", 'A'+side, i)
		}
	}

	fmt.Fprintf(stdout, "A/A self-check: `-aa %d -seed %d -seconds %g -scale %s` — %d invocations, seeds %d..%d on each side\n\n",
		n, cfg.seed, cfg.seconds, cfg.scale, 2*n, cfg.seed, cfg.seed+int64(n)-1)
	fmt.Fprintf(stdout, "nproc=%d gomaxprocs=%d go=%s storage=%s commit=%s\n\n", st.NProc, st.GOMAXPROCS, st.GoVersion, storage, st.Commit)
	fmt.Fprintln(stdout, "| workload | metric | unit | median A | median B | gap % | spread A % | spread B % | bound % | ok |")
	fmt.Fprintln(stdout, "|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	failed, wide := false, 0
	for _, w := range names {
		for _, d := range endToEnd {
			a, b := values[0][key{w, d.name}], values[1][key{w, d.name}]
			ma, mb := median(a), median(b)
			gap := 100 * (mb - ma) / ma
			spread := func(v []float64) string {
				q1, q3 := quartiles(v)
				sp := 100 * (q3 - q1) / median(v)
				if d.name != "setup_s" && sp > 100*d.bound {
					wide++
					return fmt.Sprintf("**%.2f**", sp)
				}
				return fmt.Sprintf("%.2f", sp)
			}
			mark := "yes"
			if gap > 100*d.bound || gap < -100*d.bound {
				mark, failed = "**NO**", true
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %+.2f | %s | %s | %.0f | %s |\n",
				w, d.name, d.unit, ma, mb, gap, spread(a), spread(b), 100*d.bound, mark)
		}
	}
	fmt.Fprintln(stdout)
	for _, w := range names {
		same := true
		for i := range countsOf[0][w] {
			if countsOf[0][w][i] != countsOf[1][w][i] {
				same = false
			}
		}
		if same {
			fmt.Fprintf(stdout, "%s: exact counts identical in all %d pairs\n", w, n)
		} else {
			fmt.Fprintf(stdout, "%s: **exact counts differ between A and B**\n", w)
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(stdout, "\nFAIL: the benchmark does not agree with itself within its bounds")
		return 1
	}
	fmt.Fprintln(stdout, "\nPASS: every median gap is within its bound")
	if wide > 0 {
		fmt.Fprintf(stdout, "NOTE: %d spreads (bold) exceed their bound: the box moved during this check\n", wide)
	}
	return 0
}
