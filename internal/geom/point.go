// Package geom provides the d-dimensional geometric primitives used by the
// spatial dominance operators: points, axis-aligned rectangles (minimum
// bounding rectangles, MBRs), the distance functions between them, and the
// exact MBR-level full-spatial-dominance test of Emrich et al. (SIGMOD
// 2010) that the paper uses for cover-based validation.
//
// All distances are Euclidean. Squared distances are used internally
// wherever the comparison outcome is unchanged, to avoid square roots on hot
// paths.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional Euclidean space. The dimensionality is
// the slice length; all points participating in one computation must share
// it.
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats the point as "(x1, x2, ...)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// SqDist returns the squared Euclidean distance between p and q.
//
//nnc:hotpath
func SqDist(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(SqDist(p, q)) }

// MinSqDistToPoints returns the minimum squared distance from p to any point
// in pts. It panics if pts is empty.
func MinSqDistToPoints(p Point, pts []Point) float64 {
	if len(pts) == 0 {
		panic("geom: MinSqDistToPoints on empty set")
	}
	best := SqDist(p, pts[0])
	for _, q := range pts[1:] {
		if d := SqDist(p, q); d < best {
			best = d
		}
	}
	return best
}

// MaxSqDistToPoints returns the maximum squared distance from p to any point
// in pts. It panics if pts is empty.
func MaxSqDistToPoints(p Point, pts []Point) float64 {
	if len(pts) == 0 {
		panic("geom: MaxSqDistToPoints on empty set")
	}
	best := SqDist(p, pts[0])
	for _, q := range pts[1:] {
		if d := SqDist(p, q); d > best {
			best = d
		}
	}
	return best
}
