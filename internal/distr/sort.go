package distr

import "slices"

// insertionMax is the most atoms SortAtoms sorts by straight insertion;
// past it, the stdlib's pattern-defeating quicksort through a typed
// comparator, which, unlike sort.Slice, neither boxes the slice
// through reflect nor allocates. The ≈ 45 atoms a disk_cold scan gathers
// sort by insertion in under half of pdqsort's time (EXPERIMENTS.md), and
// runs of Table 2's m of 20 and 40 fall below it too.
const insertionMax = 64

// SortAtoms sorts atoms by non-decreasing distance, in place: every run a
// sweep reaches (Checker.sortedRun), the atoms Buckets.Gather collects and
// N_r.
//
//nnc:hotpath
func SortAtoms(a []Atom) {
	if len(a) > insertionMax {
		slices.SortFunc(a, func(x, y Atom) int { return order(x.Dist, y.Dist) })
		return
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && x.Dist < a[j-1].Dist; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// order is cmp.Compare for distances, which are never NaN: plain
// comparisons, without the NaN tests cmp.Compare makes.
func order(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
