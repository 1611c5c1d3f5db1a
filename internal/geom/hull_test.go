package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// The product keeps no convex hull. Section 5.1.2's reduction (only the
// query instances on the hull can be binding) holds in real arithmetic but
// not in the float distances every verdict compares, so every point-level
// test ranges over every query instance. convexHullIndices is the hull the
// reduction would take, kept here to pin that: the tests below check it
// is a hull, that the reduction agrees on random points, and that it
// fails on a query instance inside the hull an ulp off the bisector.

// convexHullIndices returns the indices of the points on the convex hull of
// pts: for d == 1 the argmin and argmax, for d == 2 Andrew's monotone chain
// (counter-clockwise, duplicates collapsed), for d >= 3 every index.
func convexHullIndices(pts []Point) []int {
	switch {
	case len(pts) == 0:
		return nil
	case len(pts) == 1:
		return []int{0}
	}
	switch len(pts[0]) {
	case 1:
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
		if c := cmpFloat(pts[i][0], pts[j][0]); c != 0 {
			return c
		}
		return cmpFloat(pts[i][1], pts[j][1])
	})
	uniq := order[:1]
	for _, i := range order[1:] {
		if !pts[i].Equal(pts[uniq[len(uniq)-1]]) {
			uniq = append(uniq, i)
		}
	}
	if len(uniq) <= 2 {
		return slices.Clone(uniq)
	}
	var hull []int
	for _, i := range uniq { // lower chain
		for len(hull) >= 2 && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	lower := len(hull) + 1
	for k := len(uniq) - 2; k >= 0; k-- { // upper chain
		i := uniq[k]
		for len(hull) >= lower && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull[:len(hull)-1] // the last point repeats the first
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		{0, 0}, {1, 0}, {1, 1}, {0, 1}, // corners
		{0.5, 0.5}, {0.3, 0.7}, // interior
	}
	hull := convexHullIndices(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	seen := map[int]bool{}
	for _, i := range hull {
		seen[i] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("corner %d missing from hull %v", i, hull)
		}
	}
	if seen[4] || seen[5] {
		t.Fatalf("interior point on hull %v", hull)
	}
}

func TestConvexHullCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	hull := convexHullIndices(pts)
	if len(hull) != 2 {
		t.Fatalf("collinear hull = %v, want the two endpoints", hull)
	}
}

func TestConvexHullDuplicates(t *testing.T) {
	pts := []Point{{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}}
	hull := convexHullIndices(pts)
	if len(hull) != 3 {
		t.Fatalf("hull of duplicated triangle = %v, want 3 vertices", hull)
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if got := convexHullIndices(nil); got != nil {
		t.Fatalf("empty hull = %v", got)
	}
	if got := convexHullIndices([]Point{{3, 4}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton hull = %v", got)
	}
	if got := convexHullIndices([]Point{{0, 0}, {1, 1}}); len(got) != 2 {
		t.Fatalf("pair hull = %v", got)
	}
	// Identical pair collapses to one.
	if got := convexHullIndices([]Point{{2, 2}, {2, 2}}); len(got) != 1 {
		t.Fatalf("identical pair hull = %v", got)
	}
}

func TestConvexHull1D(t *testing.T) {
	pts := []Point{{5}, {1}, {9}, {3}}
	hull := convexHullIndices(pts)
	if len(hull) != 2 {
		t.Fatalf("1-D hull = %v", hull)
	}
	if pts[hull[0]][0] != 1 || pts[hull[1]][0] != 9 {
		t.Fatalf("1-D hull picked %v", hull)
	}
}

func TestConvexHullHighDimFallback(t *testing.T) {
	pts := []Point{{0, 0, 0}, {1, 0, 0}, {0.5, 0.5, 0.5}}
	hull := convexHullIndices(pts)
	if len(hull) != len(pts) {
		t.Fatalf("d>=3 fallback must return all indices, got %v", hull)
	}
}

// inHull reports whether p lies inside or on the boundary of the
// counter-clockwise convex polygon hull: left of or on every edge.
func inHull(p Point, hull []Point) bool {
	for i, a := range hull {
		if cross(a, hull[(i+1)%len(hull)], p) < 0 {
			return false
		}
	}
	return true
}

// Property: every input point is inside the hull polygon, and hull vertices
// are a subset of the input.
func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(rng, 2, 10)
		}
		hull := convexHullIndices(pts)
		poly := make([]Point, len(hull))
		for i, j := range hull {
			poly[i] = pts[j]
		}
		for i, p := range pts {
			if !inHull(p, poly) {
				t.Fatalf("iter %d: point %d (%v) outside its own hull %v", iter, i, p, hull)
			}
		}
	}
}

// Property: on random points, dominance decisions restricted to hull
// instances equal decisions over all instances — Section 5.1.2's
// reduction, which TestHullReductionFailsInFloats refutes an ulp off the
// bisector.
func TestHullSufficiencyForInstanceDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 500; iter++ {
		n := 3 + rng.Intn(20)
		qs := make([]Point, n)
		for i := range qs {
			qs[i] = randPoint(rng, 2, 10)
		}
		hull := convexHullIndices(qs)
		u := randPoint(rng, 2, 12)
		v := randPoint(rng, 2, 12)
		full := true
		for _, q := range qs {
			if SqDist(u, q) > SqDist(v, q) {
				full = false
				break
			}
		}
		hullOnly := true
		for _, hi := range hull {
			if SqDist(u, qs[hi]) > SqDist(v, qs[hi]) {
				hullOnly = false
				break
			}
		}
		if full != hullOnly {
			t.Fatalf("iter %d: hull-restricted dominance %v != full %v", iter, hullOnly, full)
		}
	}
}

// The counterexample that took the reduction out of the product (the query
// of core's bisectorQuery): a and b lie on the bisector of u and v, c on
// u's side, and q0 between a and b, moved toward c by about 1e-14. In real
// arithmetic q0 is nearer u, as every point of the hull abc is; in floats
// it is nearer v, so deciding on the hull alone says u dominates v where
// the full test says it does not.
func TestHullReductionFailsInFloats(t *testing.T) {
	qs := []Point{
		{-7.397571572031783, 16.986199569252097},
		{21.589627747795927, -5.621832555323034},
		{-0.9300643942994942, -4.608581352992956},
		{-3.681366252641256, 14.087813688114913},
	}
	u := Point{5.089504967336681, 3.10949229197516}
	v := Point{9.102551208427464, 8.254874721953904}
	hull := convexHullIndices(qs)
	slices.Sort(hull)
	if !slices.Equal(hull, []int{0, 1, 2}) {
		t.Fatalf("hull = %v, want the triangle [0 1 2] with q0 inside", hull)
	}
	for _, i := range hull {
		if Dist(u, qs[i]) > Dist(v, qs[i]) {
			t.Fatalf("hull instance %d is nearer v", i)
		}
	}
	if Dist(u, qs[3]) <= Dist(v, qs[3]) {
		t.Fatal("q0 is not nearer v in floats: the counterexample no longer refutes the reduction")
	}
}
