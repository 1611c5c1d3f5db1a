package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewRectPanics(t *testing.T) {
	cases := []struct{ lo, hi Point }{
		{Point{0, 0}, Point{1}},
		{Point{2, 0}, Point{1, 1}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewRect(c.lo, c.hi)
		}()
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{1, 5}, {3, 2}, {-1, 4}}
	r := BoundingRect([]float64{1, 5, 3, 2, -1, 4}, 2)
	want := NewRect(Point{-1, 2}, Point{3, 5})
	if !r.Equal(want) {
		t.Fatalf("BoundingRect = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.ContainsPoint(p) {
			t.Fatalf("bounding rect misses %v", p)
		}
	}
	if cap(r.Lo) != 2 || cap(r.Hi) != 2 {
		t.Fatalf("corners of capacity %d and %d: an append reaches the other", cap(r.Lo), cap(r.Hi))
	}
}

func TestRectAreaMarginCenter(t *testing.T) {
	r := NewRect(Point{0, 0, 0}, Point{2, 3, 4})
	if r.Area() != 24 {
		t.Fatalf("Area = %g", r.Area())
	}
	if r.Margin() != 9 {
		t.Fatalf("Margin = %g", r.Margin())
	}
	if !r.Center().Equal(Point{1, 1.5, 2}) {
		t.Fatalf("Center = %v", r.Center())
	}
}

func TestRectContainsIntersects(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	s := NewRect(Point{2, 2}, Point{5, 5})
	apart := NewRect(Point{11, 11}, Point{12, 12})
	touch := NewRect(Point{10, 0}, Point{12, 2})

	if !r.ContainsRect(s) || s.ContainsRect(r) {
		t.Fatal("ContainsRect wrong")
	}
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Fatal("nested rects must intersect")
	}
	if r.Intersects(apart) {
		t.Fatal("disjoint rects intersect")
	}
	if !r.Intersects(touch) {
		t.Fatal("touching rects must intersect")
	}
	if !r.ContainsPoint(Point{0, 0}) || r.ContainsPoint(Point{-0.1, 5}) {
		t.Fatal("ContainsPoint wrong")
	}
}

func TestRectUnionEnlargement(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	s := NewRect(Point{2, 2}, Point{3, 3})
	u := r.Union(s)
	if !u.Equal(NewRect(Point{0, 0}, Point{3, 3})) {
		t.Fatalf("Union = %v", u)
	}
	if got := r.Enlargement(s); got != 8 {
		t.Fatalf("Enlargement = %g, want 8", got)
	}
}

// UnionArea, Enlargement and Expand are Union with the allocation taken
// out: bit-equal to it on every input, the signed zeros and NaN that
// math.Min/Max order specially included — the R-tree's ChooseSubtree and
// QuadraticSplit must keep picking the same children.
func TestUnionAreaAndExpandMatchUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return negZero
		case 2:
			return math.NaN()
		}
		return rng.NormFloat64() * 1e3
	}
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(4)
		var r, s Rect
		for i := 0; i < d; i++ {
			r.Lo, r.Hi = append(r.Lo, coord()), append(r.Hi, coord())
			s.Lo, s.Hi = append(s.Lo, coord()), append(s.Hi, coord())
		}
		u := r.Union(s)
		if got, want := r.UnionArea(s), u.Area(); !sameBits(got, want) {
			t.Fatalf("UnionArea(%v, %v) = %v, Union.Area = %v", r, s, got, want)
		}
		if got, want := r.Enlargement(s), u.Area()-r.Area(); !sameBits(got, want) {
			t.Fatalf("Enlargement(%v, %v) = %v, want %v", r, s, got, want)
		}
		e := r.Clone()
		e.Expand(s)
		for i := 0; i < d; i++ {
			if !sameBits(e.Lo[i], u.Lo[i]) || !sameBits(e.Hi[i], u.Hi[i]) {
				t.Fatalf("Expand(%v, %v) = %v, Union = %v", r, s, e, u)
			}
		}
	}
}

func TestMinMaxDistPoint(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Point{1, 1}, 0, math.Sqrt2},                // inside: max at any corner
		{Point{3, 1}, 1, math.Sqrt(9 + 1)},          // right of the box
		{Point{-1, -1}, math.Sqrt2, 3 * math.Sqrt2}, // below-left corner
		{Point{0, 0}, 0, 2 * math.Sqrt2},            // on a corner
	}
	for i, c := range cases {
		if got := r.MinDistPoint(c.p); !almostEq(got, c.min) {
			t.Errorf("case %d: MinDistPoint = %g, want %g", i, got, c.min)
		}
		if got := r.MaxDistPoint(c.p); !almostEq(got, c.max) {
			t.Errorf("case %d: MaxDistPoint = %g, want %g", i, got, c.max)
		}
	}
}

func TestMinMaxDistRect(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	s := NewRect(Point{3, 0}, Point{4, 1})
	if got := r.MinDistRect(s); !almostEq(got, 2) {
		t.Fatalf("MinDistRect = %g, want 2", got)
	}
	if got := r.MaxDistRect(s); !almostEq(got, math.Sqrt(16+1)) {
		t.Fatalf("MaxDistRect = %g, want sqrt(17)", got)
	}
	if got := r.MinDistRect(r); got != 0 {
		t.Fatalf("MinDistRect(self) = %g", got)
	}
}

// Property: MinDistPoint / MaxDistPoint bound the distance to every point
// sampled inside the rectangle.
func TestMinMaxDistPointBoundsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := 1 + rng.Intn(4)
		r := randRect(rng, d, 10)
		p := randPoint(rng, d, 15)
		lo, hi := r.MinDistPoint(p), r.MaxDistPoint(p)
		for k := 0; k < 20; k++ {
			x := randPointIn(rng, r)
			dist := Dist(p, x)
			if dist < lo-1e-9 || dist > hi+1e-9 {
				t.Fatalf("dist %g outside [%g, %g] (d=%d)", dist, lo, hi, d)
			}
		}
	}
}

// Property: rect-rect min/max distances bound sampled pairwise distances.
func TestMinMaxDistRectBoundsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		d := 1 + rng.Intn(4)
		r := randRect(rng, d, 10)
		s := randRect(rng, d, 10)
		lo, hi := r.MinDistRect(s), r.MaxDistRect(s)
		for k := 0; k < 20; k++ {
			a, b := randPointIn(rng, r), randPointIn(rng, s)
			dist := Dist(a, b)
			if dist < lo-1e-9 || dist > hi+1e-9 {
				t.Fatalf("dist %g outside [%g, %g]", dist, lo, hi)
			}
		}
	}
}
