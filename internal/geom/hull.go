package geom

import "slices"

// ConvexHullIndices returns the indices of the points that lie on the convex
// hull of pts. The hull is a pure optimization for dominance checks (only
// hull query instances can be binding, Section 5.1.2), so correctness never
// depends on it being minimal:
//
//   - d == 1: the argmin and argmax coordinates.
//   - d == 2: exact hull via Andrew's monotone chain (counter-clockwise).
//   - d >= 3: all indices (the safe fallback replacing the paper's use of
//     qhull; every dominance predicate quantifies over a superset of the
//     hull, so results are identical, merely with less pruning).
//
// Duplicate points are collapsed to one representative.
func ConvexHullIndices(pts []Point) []int {
	switch {
	case len(pts) == 0:
		return nil
	case len(pts) == 1:
		return []int{0}
	}
	switch len(pts[0]) {
	case 1:
		return hull1D(pts)
	case 2:
		return hull2D(pts)
	default:
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
}

func hull1D(pts []Point) []int {
	lo, hi := 0, 0
	for i, p := range pts {
		if p[0] < pts[lo][0] {
			lo = i
		}
		if p[0] > pts[hi][0] {
			hi = i
		}
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// cross returns the z-component of (b-a) x (c-a).
func cross(a, b, c Point) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

func hull2D(pts []Point) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := pts[i], pts[j]
		if a[0] < b[0] {
			return -1
		}
		if a[0] > b[0] {
			return 1
		}
		if a[1] < b[1] {
			return -1
		}
		if a[1] > b[1] {
			return 1
		}
		return 0
	})
	// Drop exact duplicates so degenerate inputs don't inflate the hull.
	uniq := order[:1]
	for _, i := range order[1:] {
		if !pts[i].Equal(pts[uniq[len(uniq)-1]]) {
			uniq = append(uniq, i)
		}
	}
	if len(uniq) <= 2 {
		res := make([]int, len(uniq))
		copy(res, uniq)
		return res
	}
	var hull []int
	// Lower chain.
	for _, i := range uniq {
		for len(hull) >= 2 && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	// Upper chain.
	lower := len(hull) + 1
	for k := len(uniq) - 2; k >= 0; k-- {
		i := uniq[k]
		for len(hull) >= lower && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull[:len(hull)-1] // last point repeats the first
}
