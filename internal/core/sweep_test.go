package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/flow"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
	"spatialdom/internal/uncertain"
)

// The sweep writes Theorem 12's rows a mask at a time off sorted runs. The
// reference below is the fill it replaced: every object's distances to the
// hull query instances as one matrix (hullDists), every pair of instances
// compared component by component (instLE).

func hullDists(c *Checker, o *uncertain.Object) []float64 {
	h := len(c.hullPts)
	d := make([]float64, o.Len()*h)
	for i := 0; i < o.Len(); i++ {
		for k, q := range c.hullPts {
			d[i*h+k] = c.metric.Dist(o.Instance(i), q)
		}
	}
	return d
}

// instLE reports whether an instance of u is not farther than an instance
// of v from every hull query instance (u ⪯Q v), given the two instances' rows
// of the hull-distance matrices.
func instLE(du, dv []float64) bool {
	for k, d := range du {
		if d > dv[k] {
			return false
		}
	}
	return true
}

func refRows(c *Checker, u, v *uncertain.Object) []uint64 {
	hu, hv := hullDists(c, u), hullDists(c, v)
	nu, nv, h := u.Len(), v.Len(), len(c.hullPts)
	w := flow.RowWords(nv)
	adm := make([]uint64, nu*w)
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			if instLE(hu[i*h:(i+1)*h], hv[j*h:(j+1)*h]) {
				flow.SetPair(adm, w, i, j)
			}
		}
	}
	return adm
}

// sweepPair draws a query and two objects of different sizes around m
// instances in d dimensions. kind picks what the pair is there to stress:
// independent clouds, V a pushed-out copy of U (a full match exists),
// zero-mass instances, coincident instances within and across the objects
// (tied distances in scans that hold), and distances within two ulps of
// the row predicate's threshold du = dv.
func sweepPair(rng *rand.Rand, d, m, kind int) (q, u, v *uncertain.Object) {
	center := func(lo, span float64) geom.Point {
		c := make(geom.Point, d)
		for i := range c {
			c[i] = lo + rng.Float64()*span
		}
		return c
	}
	q = randObject(rng, 0, d, 1+rng.Intn(6), center(10, 2), 3)
	u = randObject(rng, 1, d, m, center(40, 10), 6)
	nv := max(1, m+[]int{-3, -1, 1, 2, 5}[rng.Intn(5)])
	if nv == m {
		nv = m + 1
	}
	weights := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = 0.05 + rng.Float64()
		}
		return ws
	}
	// pushed returns instance i of u moved by t along the ray from the first
	// query instance, so that its distance to that instance moves by t.
	q0 := q.Instance(0)
	pushed := func(i int, t float64) geom.Point {
		p := u.Instance(i)
		dist := geom.Dist(p, q0)
		out := make(geom.Point, d)
		for k := range out {
			out[k] = p[k] + (p[k]-q0[k])/dist*t
		}
		return out
	}
	pts, ws := make([]geom.Point, nv), weights(nv)
	switch kind {
	case 0:
		return q, u, randObject(rng, 2, d, nv, center(42, 10), 6)
	case 1, 2:
		for j := range pts {
			pts[j] = pushed(j%m, 0.5+rng.Float64())
		}
		if kind == 2 {
			uw := weights(m)
			for n := 0; n < 2 && m > 1; n++ {
				uw[1+rng.Intn(m-1)] = 0
			}
			u = uncertain.MustNew(1, u.Points(), uw)
			if nv > 1 {
				ws[1+rng.Intn(nv-1)] = 0
			}
		}
	case 3:
		// V is U's own instances — two of which coincide — with a tenth of
		// the mass moved out to one far instance: every distance of U ties
		// one of V, and U still dominates.
		up, uw := u.Points(), weights(m)
		up[m-1] = up[0].Clone()
		u = uncertain.MustNew(1, up, uw)
		pts, ws = make([]geom.Point, m+1), make([]float64, m+1)
		for j := range up {
			pts[j], ws[j] = u.Instance(j).Clone(), 0.9*u.Prob(j)
		}
		pts[m], ws[m] = pushed(0, 60), 0.1
	case 4:
		// On u's instances, and one and two ulps either side of them.
		for j := range pts {
			p := u.Instance(j % m).Clone()
			for n := rng.Intn(5) - 2; n != 0; n -= n / max(n, -n) {
				p[0] = math.Nextafter(p[0], p[0]+float64(n))
			}
			pts[j] = p
		}
	}
	return q, u, uncertain.MustNew(2, pts, ws)
}

// The sweep's rows are bit for bit the all-pairs fill's, it refutes a pair
// exactly when a scan fails, the exact test over its rows refutes without a
// solve exactly when the reference rows isolate a positive mass, and the
// verdict the ladder reaches is the one the reference rows and the
// independent max-flow oracle give — for objects on both sides of one
// mask word, with the scans on and
// off, with and without the hull restriction, under L2 and L1.
func TestSweepRowsMatchAllPairsFill(t *testing.T) {
	cfgs := []FilterConfig{AllFilters, AllFilters, AllFilters}
	cfgs[1].StatPruning = false
	cfgs[2].Geometric = false
	rng := rand.New(rand.NewSource(2601))
	var tr flow.Transport
	held, refuted, onEdge := 0, 0, 0
	for _, m := range []int{1, 7, 10, 16, 17, 40, 64, 65, 130} {
		for d := 1; d <= 3; d++ {
			for kind := 0; kind < 5; kind++ {
				q, u, v := sweepPair(rng, d, m, kind)
				for ci, cfg := range cfgs {
					for _, metric := range []geom.Metric{geom.Euclidean, geom.Manhattan} {
						if metric != geom.Euclidean && ci != 0 {
							continue
						}
						name := fmt.Sprintf("m=%d d=%d kind=%d %+v %s", m, d, kind, cfg, metric.Name())
						c := NewCheckerMetric(q, PSD, cfg, metric)
						wantAdm := refRows(c, u, v)
						if kind == 4 {
							onEdge += edgeHits(c, u, v)
						}
						scansHold := true
						for j := 0; cfg.StatPruning && j < q.Len(); j++ {
							uq := nnfunc.BetweenInstanceFunc(u, q.Instance(j), metric.Dist)
							vq := nnfunc.BetweenInstanceFunc(v, q.Instance(j), metric.Dist)
							scansHold = scansHold && distr.StochasticLE(uq, vq, nil)
						}
						isolated := tr.Isolated(u.Probs(), v.Probs(), wantAdm)
						open := scansHold && !isolated

						su, sv := c.summaryOf(u), c.summaryOf(v)
						adm, ok := c.sweep(su, sv)
						if ok != scansHold {
							t.Fatalf("%s: sweep ok = %v; scans hold %v", name, ok, scansHold)
						}
						if ok && !slices.Equal(adm, wantAdm) {
							t.Fatalf("%s: rows differ from the all-pairs fill\nadm    %x\nwant   %x", name, adm, wantAdm)
						}
						// The sweep counts a scan prune exactly for a scan that
						// fails, and none with the scans off.
						if st := c.Stats; st.ScanPrunes != st.StatPrunes || st.ScanPrunes > 1 || (st.ScanPrunes == 1) == scansHold {
							t.Fatalf("%s: scans hold %v, counted %+v", name, scansHold, st)
						}
						// The isolated-mass exit lives in the exact test: over the
						// sweep's rows it refutes, without a solve, exactly the
						// pairs the reference rows isolate.
						if ok {
							exact := c.psdSolve(su, sv, adm)
							if isolated && exact || c.Stats.FlowSolves != int64(b2i(!isolated)) {
								t.Fatalf("%s: reference rows isolated %v; exact test said %v after %d solves", name, isolated, exact, c.Stats.FlowSolves)
							}
						}

						want := open
						if want {
							tr.Solve(u.Probs(), v.Probs(), wantAdm)
							want = tr.Unshipped() <= uncertain.MassBound(u.Len()+v.Len()) &&
								!distr.Equal(nnfunc.BetweenFunc(u, q, metric.Dist), nnfunc.BetweenFunc(v, q, metric.Dist))
						}
						pc := NewCheckerMetric(q, PSD, cfg, metric)
						got := pc.psd(pc.summaryOf(u), pc.summaryOf(v))
						if got != want {
							t.Fatalf("%s: psd = %v, reference rows give %v", name, got, want)
						}
						// Under StatPruning a pair the reference rows isolate
						// never reaches the sweep: rung 2 or rung 4a refutes it.
						if st := pc.Stats; cfg.StatPruning && isolated &&
							(st.StatPrunes+st.IsolationPrunes != 1 || st.ScanPrunes != 0 || st.FlowSolves != 0) {
							t.Fatalf("%s: isolated rows reached the sweep: %+v", name, st)
						}
						// Away from the ulp-level ties, random clouds never have
						// U_Q = V_Q: P-SD is the oracle's match.
						if kind != 4 && metric == geom.Euclidean {
							if oracle := oraclePSDMatch(u, v, q); got != oracle {
								t.Fatalf("%s: psd = %v, max-flow oracle %v", name, got, oracle)
							}
						}
						if ok {
							held++
						} else {
							refuted++
						}
					}
				}
			}
		}
	}
	if held < 100 || refuted < 100 || onEdge < 100 {
		t.Fatalf("one-sided exercise: %d sweeps held, %d refuted, %d comparisons within two ulps of a threshold", held, refuted, onEdge)
	}
}

// edgeHits counts the (u, v, hull instance) triples whose two distances sit
// within two ulps of the threshold du = dv.
func edgeHits(c *Checker, u, v *uncertain.Object) int {
	hu, hv := hullDists(c, u), hullDists(c, v)
	h, hits := len(c.hullPts), 0
	near := func(a, b float64) bool {
		return a == b || math.Nextafter(a, b) == b || math.Nextafter(math.Nextafter(a, b), b) == b
	}
	for i := 0; i < u.Len(); i++ {
		for j := 0; j < v.Len(); j++ {
			for k := 0; k < h; k++ {
				du, dv := hu[i*h+k], hv[j*h+k]
				if near(du, dv) || near(dv, du) {
					hits++
				}
			}
		}
	}
	return hits
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
