package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. Nearest rank never interpolates, so a reported value is
// always a latency that was measured.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), q)]
}

// nearestRank is the 0-based index of the q-quantile among n sorted samples.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// median and quartiles of a small float sample; quartiles follow
// Python's statistics.quantiles(values, n=4) (the exclusive method), the
// estimator the acceptance check for this benchmark uses.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// cpuTime is the process's user+system CPU time so far. It covers every
// goroutine — GC workers and the in-process HTTP server included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkModeBoundaries is the percentile-placement assertion: a workload
// whose headline latencies fall into several modes (cache hit / miss,
// plain commit / checkpointing commit) reports the cumulative share of
// samples below each mode boundary, and neither reported percentile may
// sit within 3 percentage points of one. A percentile on a boundary flips
// between the two modes' latencies with the estimator and with a handful
// of samples, so it cannot repeat.
func checkModeBoundaries(boundaries []float64) error {
	for _, b := range boundaries {
		for _, q := range []float64{0.50, 0.95} {
			if d := q - b; d > -modeMargin && d < modeMargin {
				return fmt.Errorf("p%.0f lies on a latency-mode boundary: %.1f%% of headline ops are below the boundary, within %.0f points",
					q*100, b*100, modeMargin*100)
			}
		}
	}
	return nil
}

const modeMargin = 0.03

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fnv-1a, folded one word at a time; the digests only need to be stable
// and sensitive, not cryptographic.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
