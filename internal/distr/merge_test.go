package distr_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"spatialdom/internal/distr"
	"spatialdom/internal/geom"
	"spatialdom/internal/ref/nnfunc"
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
	// and Equal at eps 0 is a fair demand.
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

// mergedAndSorted returns U_Q of u built both ways: the runs sorted one by
// one and merged (what a search does), and weighted then sorted whole (the
// reference).
func mergedAndSorted(u, q *uncertain.Object, s *distr.RunSorter, tmp []distr.Pair) (merged, sorted distr.Distribution) {
	m := u.Len()
	runs := make([]distr.Pair, m*q.Len())
	distr.Summarize(runs, nil, u, q, nil)
	sorted = nnfunc.WeightRuns(make([]distr.Pair, len(runs)), runs, m, q)
	s.SortRuns(runs, make([]int32, len(runs)), u.Probs())
	return distr.MergeRuns(make([]distr.Pair, len(runs)), tmp, runs, m, q), sorted
}

// MergeRuns builds the U_Q that WeightRuns + Own builds: the same atoms, in
// non-decreasing order, Equal at eps 0 — and so every StochasticLE and
// Equal verdict, and the atoms a scan consumes, are the same on pairs of
// distributions built either way. Checked over |Q| of 1, 2, 3, 8 and 9
// (zero, one, two and four merge passes, with an odd run left over), m on
// both sides of the insertion-sort cutoff, tie-heavy runs and
// zero-probability instances on both sides.
func TestMergeRunsMatchesWeightedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var s distr.RunSorter
	tmp := make([]distr.Pair, 9*130)
	verdicts := map[bool]int{}
	for _, mc := range mergeCases {
		for _, nq := range []int{1, 2, 3, 8, 9} {
			for _, m := range []int{1, 10, 24, 25, 130} {
				q := mergeObject(rng, mc, 0, nq, 0)
				var merged, sorted []distr.Distribution
				for id := 1; id <= 4; id++ {
					u := mergeObject(rng, mc, id, m, float64(rng.Intn(3)))
					mg, st := mergedAndSorted(u, q, &s, tmp)
					got, want := mg.Pairs(), st.Pairs()
					if !slices.IsSortedFunc(got, func(a, b distr.Pair) int { return cmp.Compare(a.Dist, b.Dist) }) {
						t.Fatalf("%s |Q|=%d m=%d: merged atoms out of order", mc.name, nq, m)
					}
					byValue := func(a, b distr.Pair) int {
						return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Prob, b.Prob))
					}
					g, w := slices.Clone(got), slices.Clone(want)
					slices.SortFunc(g, byValue)
					slices.SortFunc(w, byValue)
					if !slices.Equal(g, w) {
						t.Fatalf("%s |Q|=%d m=%d: merged atoms are not the weighted atoms", mc.name, nq, m)
					}
					if mc.name == "distinct" && !slices.Equal(got, want) {
						t.Fatalf("|Q|=%d m=%d: distinct distances, yet the merge's order is not the sort's", nq, m)
					}
					if !distr.Equal(mg, st) {
						t.Fatalf("%s |Q|=%d m=%d: merged and sorted U_Q differ", mc.name, nq, m)
					}
					merged, sorted = append(merged, mg), append(sorted, st)
					// The copy of u is the pair Equal says yes to.
					twin := uncertain.MustNew(id+10, u.Points(), u.Probs())
					mt, tt := mergedAndSorted(twin, q, &s, tmp)
					merged, sorted = append(merged, mt), append(sorted, tt)
				}
				for a := range merged {
					for b := range merged {
						var nm, ns int64
						le := distr.StochasticLE(merged[a], merged[b], &nm)
						if le != distr.StochasticLE(sorted[a], sorted[b], &ns) || nm != ns {
							t.Fatalf("%s |Q|=%d m=%d pair (%d,%d): StochasticLE differs or consumes differently", mc.name, nq, m, a, b)
						}
						eq := distr.Equal(merged[a], merged[b])
						if eq != distr.Equal(sorted[a], sorted[b]) {
							t.Fatalf("%s |Q|=%d m=%d pair (%d,%d): Equal differs", mc.name, nq, m, a, b)
						}
						if a != b {
							verdicts[le && !eq]++
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
	runs := make([]distr.Pair, u.Len()*q.Len())
	distr.Summarize(runs, nil, u, q, nil)
	s.SortRuns(runs, make([]int32, len(runs)), u.Probs())
	dst := make([]distr.Pair, len(runs))
	if n := testing.AllocsPerRun(10, func() { distr.MergeRuns(dst, tmp, runs, u.Len(), q) }); n != 0 {
		t.Fatalf("a warm merge allocates %v times", n)
	}
}
