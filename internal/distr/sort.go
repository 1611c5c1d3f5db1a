package distr

import "slices"

// insertionCutoff is the length below which straight insertion sort beats
// the general sorter. The bulk of the hot path sorts U_q distributions of
// m ≈ 8–16 atoms, which this catches without any dispatch overhead.
const insertionCutoff = 24

// sortPairs sorts atoms by non-decreasing value without reflection. Small
// inputs use insertion sort; larger ones use the stdlib's pattern-defeating
// quicksort through a typed comparator, which, unlike sort.Slice, neither
// boxes the slice through reflect nor allocates.
func sortPairs(p []Pair) {
	if len(p) <= insertionCutoff {
		insertionSort(p)
		return
	}
	slices.SortFunc(p, func(a, b Pair) int { return order(a.Dist, b.Dist) })
}

// insertionSort sorts atoms by non-decreasing value, shifting each into
// place, stably.
func insertionSort(p []Pair) {
	for i := 1; i < len(p); i++ {
		a, j := p[i], i
		for ; j > 0 && a.Dist < p[j-1].Dist; j-- {
			p[j] = p[j-1]
		}
		p[j] = a
	}
}

// RunSorter sorts the runs of a Summarize buffer, remembering which
// instance each atom belongs to. The sort goes
// through a buffer of (distance, instance) keys the sorter retains, so a
// warm sort does not allocate. The zero value is ready to use.
type RunSorter struct{ keys []runKey }

type runKey struct {
	dist float64
	inst int32
}

// SortRuns sorts each run of a Summarize buffer in place by non-decreasing
// distance — the order sortPairs leaves the same distances in, ties
// included — and sets inst[k] to the instance of the atom now at position
// k of its run. c are the masses Summarize filled the runs from, one per
// instance.
func (s *RunSorter) SortRuns(runs []Atom, inst []int32, c []uint64) {
	for lo, m := 0, len(c); lo < len(runs); lo += m {
		s.sort(runs[lo:lo+m], inst[lo:lo+m], c)
	}
}

func (s *RunSorter) sort(run []Atom, inst []int32, c []uint64) {
	keys := s.grow(len(run))
	for i, p := range run {
		keys[i] = runKey{p.Dist, int32(i)}
	}
	if len(keys) <= insertionCutoff {
		for i := 1; i < len(keys); i++ {
			key, j := keys[i], i
			for ; j > 0 && key.dist < keys[j-1].dist; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = key
		}
	} else {
		slices.SortFunc(keys, func(a, b runKey) int { return order(a.dist, b.dist) })
	}
	for k, key := range keys {
		run[k] = Atom{Dist: key.dist, Mass: Mass{Lo: c[key.inst]}}
		inst[k] = key.inst
	}
}

// grow returns the key buffer resized to n.
//
//nnc:coldpath amortized buffer growth to the longest run sorted so far; warm calls reslice
func (s *RunSorter) grow(n int) []runKey {
	if cap(s.keys) < n {
		s.keys = make([]runKey, n)
	}
	return s.keys[:n]
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
