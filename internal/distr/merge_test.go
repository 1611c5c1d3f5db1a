package distr_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// mergeCase is one way of drawing the objects MergeRuns is checked on.
type mergeCase struct {
	name string
	// coord draws a 1-d instance coordinate for an object shifted by s.
	coord func(rng *rand.Rand, s float64) float64
	// weights draws n instance weights, some of them zero.
	weights func(rng *rand.Rand, n int) []float64
}

var mergeCases = []mergeCase{
	// Continuous coordinates: no two atoms share a distance, so the sorted
	// order is unique and the merge must reproduce the sort bit for bit.
	{"distinct", func(rng *rand.Rand, s float64) float64 { return s + rng.Float64()*20 },
		func(rng *rand.Rand, n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				if rng.Intn(6) > 0 {
					w[i] = rng.Float64()
				}
			}
			w[rng.Intn(n)] = 1
			return w
		}},
	// Integer coordinates on a short line: most distances are shared by many
	// atoms, within a run and across runs. The weights are dyadic (integers
	// summing to a power of two, so each probability and each product is
	// exact), so every summation order of a tie group gives the same float64
	// and exact equality is a fair demand.
	{"ties", func(rng *rand.Rand, s float64) float64 { return s + float64(rng.Intn(6)) },
		func(rng *rand.Rand, n int) []float64 {
			w := make([]float64, n)
			var sum int
			for i := range w[:n-1] {
				v := rng.Intn(4) // zero a quarter of the time
				w[i], sum = float64(v), sum+v
			}
			pow := 1
			for pow < sum {
				pow *= 2
			}
			w[n-1] = float64(pow - sum)
			return w
		}},
}

// mergeObject draws a 1-d object of n instances, shifted by s.
func mergeObject(rng *rand.Rand, mc mergeCase, id, n int, s float64) *uncertain.Object {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{mc.coord(rng, s)}
	}
	return uncertain.MustNew(id, pts, mc.weights(rng, n))
}

// mergedAndSorted returns U_Q of u built both ways — the runs sorted one
// by one and merged (what a search does), and every instance pair sorted
// whole (the reference) — u's masses and their total.
func mergedAndSorted(u, q *uncertain.Object, tmp []distr.Atom) (merged, sorted []distr.Atom, c []uint64, total uint64) {
	m := u.Len()
	runs := make([]distr.Atom, m*q.Len())
	c = make([]uint64, m)
	total = distr.Masses(c, u.Probs())
	distr.Summarize(runs, make([]distr.Stat, q.Len()), u, q, nil)
	sorted = make([]distr.Atom, len(runs))
	for k, a := range runs {
		sorted[k] = distr.Atom{Dist: a.Dist, Q: int32(k / m), U: a.U}
	}
	slices.SortStableFunc(sorted, func(a, b distr.Atom) int { return cmp.Compare(a.Dist, b.Dist) })
	sortRuns(runs, m)
	return distr.MergeRuns(make([]distr.Atom, len(runs)), tmp, runs, m), sorted, c, total
}

// sortRuns sorts each run of m atoms in place, as a sweep does.
func sortRuns(runs []distr.Atom, m int) {
	for lo := 0; lo < len(runs); lo += m {
		distr.SortAtoms(runs[lo : lo+m])
	}
}

// MergeRuns builds the U_Q that sorting every instance pair builds: the
// same atoms, naming the same instances, in non-decreasing order — and so
// every verdict of the scan, and the atoms it consumes, are the same on
// pairs of distributions built either way. The masses the scan derives
// from a merged U_Q sum to T_Q·T_U. Checked over |Q| of 1, 2, 3, 8 and 9
// (zero, one, two and four merge passes, with an odd run left over), m on
// both sides of the insertion-sort cutoff, tie-heavy runs and
// zero-probability instances on both sides.
func TestMergeRunsMatchesWeightedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tmp := make([]distr.Atom, 9*130)
	verdicts := map[bool]int{}
	for _, mc := range mergeCases {
		for _, nq := range []int{1, 2, 3, 8, 9} {
			for _, m := range []int{1, 10, 64, 65, 130} {
				q := mergeObject(rng, mc, 0, nq, 0)
				cq := make([]uint64, nq)
				tq := distr.Masses(cq, q.Probs())
				var merged, sorted [][]distr.Atom
				var masses [][]uint64
				var totals []uint64
				for id := 1; id <= 4; id++ {
					u := mergeObject(rng, mc, id, m, float64(rng.Intn(3)))
					got, want, cu, tu := mergedAndSorted(u, q, tmp)
					if !slices.IsSortedFunc(got, func(a, b distr.Atom) int { return cmp.Compare(a.Dist, b.Dist) }) {
						t.Fatalf("%s |Q|=%d m=%d: merged atoms out of order", mc.name, nq, m)
					}
					byValue := func(a, b distr.Atom) int {
						return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Q, b.Q), cmp.Compare(a.U, b.U))
					}
					g, w := slices.Clone(got), slices.Clone(want)
					slices.SortFunc(g, byValue)
					slices.SortFunc(w, byValue)
					if !slices.Equal(g, w) {
						t.Fatalf("%s |Q|=%d m=%d: merged atoms are not the instance pairs", mc.name, nq, m)
					}
					var sum distr.Mass
					for _, a := range got {
						sum = sum.Add(distr.Mul(cq[a.Q], cu[a.U]))
					}
					if sum != distr.Mul(tq, tu) {
						t.Fatalf("%s |Q|=%d m=%d: the derived masses sum to %v, not T_Q·T_U", mc.name, nq, m, sum)
					}
					if mc.name == "distinct" && !slices.Equal(got, want) {
						t.Fatalf("|Q|=%d m=%d: distinct distances, yet the merge's order is not the sort's", nq, m)
					}
					merged, sorted, masses, totals = append(merged, got), append(sorted, want), append(masses, cu), append(totals, tu)
					// A renormalised copy of u: equal to u, or an ulp of
					// mass apart.
					twin := uncertain.MustNew(id+10, u.Points(), u.Probs())
					mt, tt, cw, tw := mergedAndSorted(twin, q, tmp)
					merged, sorted, masses, totals = append(merged, mt), append(sorted, tt), append(masses, cw), append(totals, tw)
				}
				for a := range merged {
					for b := range merged {
						n := distr.NewNorm(cq, masses[a], masses[b], totals[a], totals[b], tq)
						le, strict, nm := n.StochasticLE(merged[a], merged[b], distr.Mass{}, distr.Mass{}, true)
						le2, strict2, ns := n.StochasticLE(sorted[a], sorted[b], distr.Mass{}, distr.Mass{}, true)
						if le != le2 || strict != strict2 || nm != ns {
							t.Fatalf("%s |Q|=%d m=%d pair (%d,%d): the scan differs or consumes differently", mc.name, nq, m, a, b)
						}
						if a != b {
							verdicts[le && strict]++
						}
					}
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the pairs exercise one verdict only: %v", verdicts)
	}
	t.Logf("S-SD verdicts over distinct pairs: %d dominate, %d do not", verdicts[true], verdicts[false])

	// Warm, the merge touches only the two buffers it is handed.
	q := mergeObject(rng, mergeCases[1], 0, 9, 0)
	u := mergeObject(rng, mergeCases[1], 1, 25, 0)
	runs := make([]distr.Atom, u.Len()*q.Len())
	distr.Summarize(runs, make([]distr.Stat, q.Len()), u, q, nil)
	sortRuns(runs, u.Len())
	dst := make([]distr.Atom, len(runs))
	if n := testing.AllocsPerRun(10, func() { distr.MergeRuns(dst, tmp, runs, u.Len()) }); n != 0 {
		t.Fatalf("a warm merge allocates %v times", n)
	}
}
