package geom

import (
	"math/rand"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		{0, 0}, {1, 0}, {1, 1}, {0, 1}, // corners
		{0.5, 0.5}, {0.3, 0.7}, // interior
	}
	hull := ConvexHullIndices(pts)
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
	hull := ConvexHullIndices(pts)
	if len(hull) != 2 {
		t.Fatalf("collinear hull = %v, want the two endpoints", hull)
	}
}

func TestConvexHullDuplicates(t *testing.T) {
	pts := []Point{{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}}
	hull := ConvexHullIndices(pts)
	if len(hull) != 3 {
		t.Fatalf("hull of duplicated triangle = %v, want 3 vertices", hull)
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if got := ConvexHullIndices(nil); got != nil {
		t.Fatalf("empty hull = %v", got)
	}
	if got := ConvexHullIndices([]Point{{3, 4}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton hull = %v", got)
	}
	if got := ConvexHullIndices([]Point{{0, 0}, {1, 1}}); len(got) != 2 {
		t.Fatalf("pair hull = %v", got)
	}
	// Identical pair collapses to one.
	if got := ConvexHullIndices([]Point{{2, 2}, {2, 2}}); len(got) != 1 {
		t.Fatalf("identical pair hull = %v", got)
	}
}

func TestConvexHull1D(t *testing.T) {
	pts := []Point{{5}, {1}, {9}, {3}}
	hull := ConvexHullIndices(pts)
	if len(hull) != 2 {
		t.Fatalf("1-D hull = %v", hull)
	}
	if pts[hull[0]][0] != 1 || pts[hull[1]][0] != 9 {
		t.Fatalf("1-D hull picked %v", hull)
	}
}

func TestConvexHullHighDimFallback(t *testing.T) {
	pts := []Point{{0, 0, 0}, {1, 0, 0}, {0.5, 0.5, 0.5}}
	hull := ConvexHullIndices(pts)
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
		hull := ConvexHullIndices(pts)
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

// Property: dominance decisions restricted to hull instances equal decisions
// over all instances — the geometric optimization of Section 5.1.2.
func TestHullSufficiencyForInstanceDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 500; iter++ {
		n := 3 + rng.Intn(20)
		qs := make([]Point, n)
		for i := range qs {
			qs[i] = randPoint(rng, 2, 10)
		}
		hull := ConvexHullIndices(qs)
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
