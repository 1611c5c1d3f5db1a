package geom

import (
	"math"
	"strconv"
)

// Rect is an axis-aligned d-dimensional rectangle (an MBR). Lo and Hi hold
// the lower and upper corner; Lo[i] <= Hi[i] must hold in every dimension.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given corners. It panics if the
// corners disagree in dimensionality or are inverted.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic("geom: NewRect corner dimensionality mismatch")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic("geom: NewRect inverted in dim " + strconv.Itoa(i) + ": [" +
				strconv.FormatFloat(lo[i], 'g', -1, 64) + ", " +
				strconv.FormatFloat(hi[i], 'g', -1, 64) + "]")
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect { return Rect{Lo: p, Hi: p} }

// BoundingRect returns the MBR of a non-empty point set held flat: coords
// is the points one after another, dim coordinates each. The two corners
// share one allocation, each capacity-limited.
func BoundingRect(coords []float64, dim int) Rect {
	if len(coords) == 0 || dim <= 0 {
		panic("geom: BoundingRect on empty set")
	}
	corners := make([]float64, 2*dim)
	lo, hi := corners[:dim:dim], corners[dim:]
	copy(lo, coords[:dim])
	copy(hi, coords[:dim])
	for off := dim; off < len(coords); off += dim {
		for i, v := range coords[off : off+dim] {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// Equal reports whether two rectangles have identical corners.
func (r Rect) Equal(s Rect) bool { return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi) }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Area returns the d-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of edge lengths (the R*-tree "margin").
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// ContainsPoint reports whether p lies inside (or on the boundary of) r.
func (r Rect) ContainsPoint(p Point) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if s.Hi[i] < r.Lo[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// UnionArea returns r.Union(s).Area() without building the union: the
// same factors multiplied in the same order, so the two are bit-equal.
//
//nnc:hotpath
func (r Rect) UnionArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		a *= max(r.Hi[i], s.Hi[i]) - min(r.Lo[i], s.Lo[i])
	}
	return a
}

// Enlargement returns the increase in area needed for r to cover s.
//
//nnc:hotpath
func (r Rect) Enlargement(s Rect) float64 {
	return r.UnionArea(s) - r.Area()
}

// Expand grows r in place to cover s. r's corners must be r's own (a
// Clone), not shared with another rectangle.
//
//nnc:hotpath
func (r Rect) Expand(s Rect) {
	for i := range r.Lo {
		r.Lo[i] = min(r.Lo[i], s.Lo[i])
		r.Hi[i] = max(r.Hi[i], s.Hi[i])
	}
}

// String formats the rectangle as "[lo; hi]".
func (r Rect) String() string { return "[" + r.Lo.String() + "; " + r.Hi.String() + "]" }

// MinSqDistPoint returns the squared distance from p to the closest point of
// r (zero when p is inside r).
func (r Rect) MinSqDistPoint(p Point) float64 {
	var s float64
	for i, v := range p {
		if v < r.Lo[i] {
			d := r.Lo[i] - v
			s += d * d
		} else if v > r.Hi[i] {
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MinDistPoint returns the distance from p to the closest point of r.
func (r Rect) MinDistPoint(p Point) float64 { return math.Sqrt(r.MinSqDistPoint(p)) }

// MaxSqDistPoint returns the squared distance from p to the farthest point
// of r, which is always attained at a corner.
func (r Rect) MaxSqDistPoint(p Point) float64 {
	var s float64
	for i, v := range p {
		d := math.Max(math.Abs(v-r.Lo[i]), math.Abs(v-r.Hi[i]))
		s += d * d
	}
	return s
}

// MaxDistPoint returns the distance from p to the farthest point of r.
func (r Rect) MaxDistPoint(p Point) float64 { return math.Sqrt(r.MaxSqDistPoint(p)) }

// MinSqDistRect returns the minimum squared distance between any pair of
// points drawn from r and s (zero when they intersect).
func (r Rect) MinSqDistRect(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		var d float64
		if s.Hi[i] < r.Lo[i] {
			d = r.Lo[i] - s.Hi[i]
		} else if r.Hi[i] < s.Lo[i] {
			d = s.Lo[i] - r.Hi[i]
		}
		sum += d * d
	}
	return sum
}

// MinDistRect returns the minimum distance between r and s.
func (r Rect) MinDistRect(s Rect) float64 { return math.Sqrt(r.MinSqDistRect(s)) }

// MaxSqDistRect returns the maximum squared distance between any pair of
// points drawn from r and s.
func (r Rect) MaxSqDistRect(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		d := math.Max(s.Hi[i]-r.Lo[i], r.Hi[i]-s.Lo[i])
		sum += d * d
	}
	return sum
}

// MaxDistRect returns the maximum distance between r and s.
func (r Rect) MaxDistRect(s Rect) float64 { return math.Sqrt(r.MaxSqDistRect(s)) }
