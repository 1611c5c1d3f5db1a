package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
)

var nonEuclidean = []geom.Metric{geom.Manhattan, geom.Chebyshev}

// Filter configurations must not change verdicts under any metric.
func TestMetricFilterConfigsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for iter := 0; iter < 150; iter++ {
		d := 2 + rng.Intn(2)
		q := randObject(rng, 0, d, 1+rng.Intn(4), randCenter(rng, d, 10), 2)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(5), base, 2)
		off := base.Clone()
		off[0] += rng.Float64() * 6
		v := randObject(rng, 2, d, 1+rng.Intn(5), off, 2)
		for _, m := range nonEuclidean {
			for _, op := range Operators {
				bare := NewCheckerMetric(q, op, FilterConfig{}, m).Dominates(u, v)
				for _, cfg := range []FilterConfig{
					{StatPruning: true}, {Geometric: true}, AllFilters,
				} {
					if got := NewCheckerMetric(q, op, cfg, m).Dominates(u, v); got != bare {
						t.Fatalf("iter %d %s %v: cfg %+v verdict %v != bare %v",
							iter, m.Name(), op, cfg, got, bare)
					}
				}
			}
		}
	}
}

// The cover chain holds under every metric.
func TestMetricCoverChain(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	hits := 0
	for iter := 0; iter < 300; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 1.5)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(4), base, 2)
		off := base.Clone()
		off[0] += rng.Float64() * 8
		v := randObject(rng, 2, d, 1+rng.Intn(4), off, 2)
		for _, m := range nonEuclidean {
			fsd := NewCheckerMetric(q, FSD, AllFilters, m).Dominates(u, v)
			psd := NewCheckerMetric(q, PSD, AllFilters, m).Dominates(u, v)
			sssd := NewCheckerMetric(q, SSSD, AllFilters, m).Dominates(u, v)
			ssd := NewCheckerMetric(q, SSD, AllFilters, m).Dominates(u, v)
			if fsd && !psd {
				t.Fatalf("%s: F-SD ⊄ P-SD", m.Name())
			}
			if psd && !sssd {
				t.Fatalf("%s: P-SD ⊄ SS-SD", m.Name())
			}
			if sssd && !ssd {
				t.Fatalf("%s: SS-SD ⊄ S-SD", m.Name())
			}
			if psd {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("chain never exercised")
	}
}

// Algorithm 1 equals brute force under every metric.
func TestMetricSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for iter := 0; iter < 6; iter++ {
		objs := randDataset(rng, 30, 2, 5, 80)
		idx, err := NewIndex(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
		for _, m := range nonEuclidean {
			for _, op := range Operators {
				want := bruteForceMetric(objs, q, op, 1, m)
				got := searchK(idx, q, op, 1, SearchOptions{Filters: AllFilters, Metric: m}).IDs()
				sort.Ints(got)
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d %s %v: got %v, want %v", iter, m.Name(), op, got, want)
				}
			}
		}
	}
}

// Different metrics genuinely produce different candidate sets (the knob
// does something).
func TestMetricsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	differs := false
	for iter := 0; iter < 20 && !differs; iter++ {
		objs := randDataset(rng, 50, 2, 5, 80)
		idx, _ := NewIndex(objs)
		q := randObject(rng, 0, 2, 3, randCenter(rng, 2, 80), 4)
		l2 := idx.Search(q, SSSD).IDs()
		l1 := searchK(idx, q, SSSD, 1, SearchOptions{Filters: AllFilters, Metric: geom.Manhattan}).IDs()
		sort.Ints(l2)
		sort.Ints(l1)
		if len(l1) != len(l2) {
			differs = true
			break
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("L1 and L2 candidate sets never differed across 20 datasets")
	}
}

// Dominance under a metric must order every stable aggregate computed on
// the metric's distance distribution (the N1 correctness story carries
// over to any metric).
func TestMetricStableAggregatesRespectDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	exercised := 0
	for iter := 0; iter < 300; iter++ {
		d := 2
		q := randObject(rng, 0, d, 1+rng.Intn(3), randCenter(rng, d, 10), 1.5)
		base := randCenter(rng, d, 10)
		u := randObject(rng, 1, d, 1+rng.Intn(4), base, 2)
		off := base.Clone()
		off[0] += rng.Float64() * 6
		v := randObject(rng, 2, d, 1+rng.Intn(4), off, 2)
		for _, m := range nonEuclidean {
			if !NewCheckerMetric(q, SSD, AllFilters, m).Dominates(u, v) {
				continue
			}
			exercised++
			uq := nnfunc.BetweenFunc(u, q, m.Dist)
			vq := nnfunc.BetweenFunc(v, q, m.Dist)
			if uq.Min() > vq.Min()+1e-9 || uq.Mean() > vq.Mean()+1e-9 || uq.Max() > vq.Max()+1e-9 {
				t.Fatalf("%s: stable aggregate inverted under dominance", m.Name())
			}
			for _, phi := range []float64{0.25, 0.5, 1} {
				if uq.Quantile(phi) > vq.Quantile(phi)+1e-9 {
					t.Fatalf("%s: quantile(%g) inverted", m.Name(), phi)
				}
			}
		}
	}
	if exercised == 0 {
		t.Fatal("never exercised")
	}
}
