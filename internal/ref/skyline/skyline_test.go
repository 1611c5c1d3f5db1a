package skyline

import (
	"math/rand"
	"sort"
	"testing"

	"spatialdom/internal/geom"
)

// bruteSpatialSkyline is the textbook O(n²·|Q|) definition.
func bruteSpatialSkyline(points, query []geom.Point) []int {
	dominates := func(a, b geom.Point) bool {
		le, strict := true, false
		for _, q := range query {
			da, db := geom.SqDist(a, q), geom.SqDist(b, q)
			if da > db {
				le = false
				break
			}
			if da < db {
				strict = true
			}
		}
		return le && strict
	}
	var out []int
	for i, p := range points {
		dominated := false
		for j, o := range points {
			if i != j && dominates(o, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func TestSpatialSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for iter := 0; iter < 30; iter++ {
		n := 10 + rng.Intn(60)
		points := make([]geom.Point, n)
		for i := range points {
			points[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		nq := 1 + rng.Intn(5)
		query := make([]geom.Point, nq)
		for i := range query {
			query[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		want := bruteSpatialSkyline(points, query)
		got := SpatialSkyline(points, query)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("iter %d: got %v, want %v", iter, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: got %v, want %v", iter, got, want)
			}
		}
	}
}

func TestSpatialSkylineKnownConfiguration(t *testing.T) {
	// One query point: the skyline is exactly the nearest point(s).
	points := []geom.Point{{1, 0}, {2, 0}, {3, 0}}
	got := SpatialSkyline(points, []geom.Point{{0, 0}})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-query skyline = %v", got)
	}
	// Two query points on opposite sides: both extremes survive.
	got = SpatialSkyline(points, []geom.Point{{0, 0}, {4, 0}})
	sort.Ints(got)
	if len(got) != 3 {
		// Points between the two query points are incomparable: p1 is
		// closer to q1, p3 closer to q2, p2 in the middle beats neither
		// everywhere — all three survive.
		t.Fatalf("two-sided skyline = %v, want all three", got)
	}
	// Degenerate inputs.
	if SpatialSkyline(nil, []geom.Point{{0}}) != nil {
		t.Fatal("empty points")
	}
	if SpatialSkyline(points, nil) != nil {
		t.Fatal("empty query")
	}
}
