// Package uncertain models objects with multiple instances: discrete
// uncertain objects (each instance carries an occurrence probability) and
// multi-valued objects (each instance carries a weight that is normalized to
// a probability, Section 2.1 of the paper). A query is itself such an
// object.
//
// An object is flat: its coordinates are one slab, instance after instance,
// and an instance is a view into it, so decoding or building an object
// costs that slab, the object and one allocation for its MBR's two
// corners. Each object owns that minimum bounding rectangle.
// The []geom.Point form of the instances is built only on request (Points).
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"spatialdom/internal/geom"
)

// Common construction errors.
var (
	ErrNoInstances   = errors.New("uncertain: object needs at least one instance")
	ErrDimMismatch   = errors.New("uncertain: instances disagree in dimensionality")
	ErrBadWeight     = errors.New("uncertain: weights must be finite and non-negative")
	ErrZeroMass      = errors.New("uncertain: total weight mass must be positive")
	ErrNotNormalized = errors.New("uncertain: probabilities must sum to one")
	ErrBadCoordinate = errors.New("uncertain: coordinates must be finite")
	ErrWeightCount   = errors.New("uncertain: weight count must match instance count")
)

// Object is an object with multiple weighted instances. Construct with New;
// the zero value is not usable. Objects are immutable after construction and
// safe for concurrent use.
type Object struct {
	id     int
	label  string
	dim    int
	coords []float64 // len(probs)·dim coordinates, instance after instance
	probs  []float64
	mass   float64 // original total weight before normalization
	mbr    geom.Rect

	ptsOnce sync.Once
	pts     []geom.Point
}

// New builds an object from its instances and optional weights.
//
// When weights is nil every instance receives probability 1/len(pts). When
// weights are given they are normalized to sum to one (the multi-valued →
// uncertain transformation of Section 2.1); the pre-normalization mass is
// retained and available via Mass. Instance slices are copied.
func New(id int, pts []geom.Point, weights []float64) (*Object, error) {
	if len(pts) == 0 {
		return nil, ErrNoInstances
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, fmt.Errorf("%w: %d weights for %d instances", ErrWeightCount, len(weights), len(pts))
	}
	probs, coords, err := flatten(pts)
	if err != nil {
		return nil, err
	}
	for i, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: instance %d", ErrBadCoordinate, i/len(pts[0]))
		}
	}
	var mass float64
	if weights == nil {
		mass = 1
		u := 1 / float64(len(pts))
		for i := range probs {
			probs[i] = u
		}
	} else {
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("%w: weight %d = %g", ErrBadWeight, i, w)
			}
			mass += w
			probs[i] = w
		}
		if mass <= 0 {
			return nil, ErrZeroMass
		}
		if math.IsInf(mass, 0) {
			// Finite weights whose sum overflows would all normalize to 0.
			return nil, fmt.Errorf("%w: total weight overflows", ErrBadWeight)
		}
		for i := range probs {
			probs[i] /= mass
		}
	}
	return newFlat(id, len(pts[0]), coords, probs, mass), nil
}

// flatten copies pts into one slab laid out as a stored record is: len(pts)
// probabilities, left for the caller to fill, then the coordinates.
func flatten(pts []geom.Point) (probs, coords []float64, err error) {
	d := len(pts[0])
	if d == 0 {
		return nil, nil, ErrDimMismatch
	}
	m := len(pts)
	slab := make([]float64, m, m+m*d)
	for i, p := range pts {
		if len(p) != d {
			return nil, nil, fmt.Errorf("%w: instance %d has dim %d, want %d", ErrDimMismatch, i, len(p), d)
		}
		slab = append(slab, p...)
	}
	return slab[:m:m], slab[m:], nil
}

// MassBound is how far rounding can move a sum of n probabilities whose
// exact total is at most one, n·2⁻⁵²: FromSlabs accepts probabilities that
// sum to one within it, and the reference's floatdist.Distribution.Quantile
// reads its accumulated mass under it. The dominance checks compare no float mass:
// they compare exact integer masses (distr's rule).
//
// Derivation, with u = 2⁻⁵³ the unit roundoff: summing k non-negative terms
// left to right errs by at most (k−1)·u times their exact sum, to first
// order, and the objects New makes carry a total within m·u of one (each
// w_i/Σw rounds by at most u relatively, and Σw by (m−1)·u), so that
// their probabilities, summed in any order, come to within (2m−1)·u of one.
// n·2⁻⁵² = 2n·u exceeds it, and the spare u covers the second-order terms
// for any n below 2²⁶.
func MassBound(n int) float64 { return float64(n) * 0x1p-52 }

// FromNormalized builds an object from instances whose probabilities are
// already normalized, copying the probability bits verbatim — no ÷mass
// renormalization. This is the wire-decode constructor: a router
// reassembling shard answers (or forwarding a query) must reproduce the
// exact float64 values the shard engine computed with, and New's
// renormalization (w/Σw with Σw ≈ 1 but rarely exactly 1) would perturb
// the low bits and with them every downstream dominance decision. The
// probabilities must be finite and non-negative and sum to one within
// MassBound(len(probs)) — every object New makes does — and Mass reports 1.
// Instance slices are copied.
func FromNormalized(id int, pts []geom.Point, probs []float64) (*Object, error) {
	if len(pts) == 0 {
		return nil, ErrNoInstances
	}
	if len(probs) != len(pts) {
		return nil, fmt.Errorf("%w: %d probabilities for %d instances", ErrWeightCount, len(probs), len(pts))
	}
	ps, coords, err := flatten(pts)
	if err != nil {
		return nil, err
	}
	copy(ps, probs)
	return FromSlabs(id, len(pts[0]), coords, ps)
}

// FromSlabs is FromNormalized for a caller that already holds the object in
// its flat form — one slab of len(probs)·dim coordinates, instance after
// instance, and one slab of normalized probabilities — and gives both up:
// the object keeps the slabs as they are, without a copy, and its instances
// are views into coords, so neither may be touched afterwards. Like
// FromNormalized it keeps the probability bits verbatim and reports Mass 1.
// Coordinates must be finite, probabilities finite and non-negative with a
// sum within MassBound(len(probs)) of one.
func FromSlabs(id, dim int, coords, probs []float64) (*Object, error) {
	if len(probs) == 0 {
		return nil, ErrNoInstances
	}
	if dim <= 0 || len(coords) != dim*len(probs) {
		return nil, fmt.Errorf("%w: %d coordinates for %d instances of dim %d", ErrDimMismatch, len(coords), len(probs), dim)
	}
	for i, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: instance %d", ErrBadCoordinate, i/dim)
		}
	}
	var mass float64
	for i, w := range probs {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("%w: probability %d = %g", ErrBadWeight, i, w)
		}
		mass += w
	}
	if mass <= 0 {
		return nil, ErrZeroMass
	}
	if math.Abs(mass-1) > MassBound(len(probs)) {
		return nil, fmt.Errorf("%w: the sum is %v", ErrNotNormalized, mass)
	}
	return newFlat(id, dim, coords, probs, 1), nil
}

// newFlat wraps validated slabs in an object; the MBR's corners share one
// allocation.
func newFlat(id, dim int, coords, probs []float64, mass float64) *Object {
	return &Object{
		id:     id,
		dim:    dim,
		coords: coords,
		probs:  probs,
		mass:   mass,
		mbr:    geom.BoundingRect(coords, dim),
	}
}

// MustNew is New that panics on error; intended for tests and examples.
func MustNew(id int, pts []geom.Point, weights []float64) *Object {
	o, err := New(id, pts, weights)
	if err != nil {
		panic(err)
	}
	return o
}

// ID returns the object identifier.
func (o *Object) ID() int { return o.id }

// Label returns the optional human-readable label.
func (o *Object) Label() string { return o.label }

// SetLabel attaches a human-readable label (returns o for chaining). Must be
// called before the object is shared across goroutines.
func (o *Object) SetLabel(s string) *Object {
	o.label = s
	return o
}

// Len returns the number of instances.
func (o *Object) Len() int { return len(o.probs) }

// Dim returns the dimensionality of the instances.
func (o *Object) Dim() int { return o.dim }

// Instance returns the i-th instance point, a view into the coordinate
// slab. The returned slice must not be modified.
func (o *Object) Instance(i int) geom.Point {
	return o.coords[i*o.dim : (i+1)*o.dim : (i+1)*o.dim]
}

// Coords returns the coordinate slab: instance i is Coords()[i·Dim() :
// (i+1)·Dim()]. The returned slice must not be modified.
func (o *Object) Coords() []float64 { return o.coords }

// Prob returns the probability of the i-th instance.
func (o *Object) Prob(i int) float64 { return o.probs[i] }

// Points returns the instance points, views into the coordinate slab. The
// slice is built on the first call, and every call returns that slice; it
// must not be modified.
func (o *Object) Points() []geom.Point {
	o.ptsOnce.Do(func() {
		pts := make([]geom.Point, o.Len())
		for i := range pts {
			pts[i] = o.Instance(i)
		}
		o.pts = pts
	})
	return o.pts
}

// Probs returns the instance probabilities. The returned slice must not be
// modified.
func (o *Object) Probs() []float64 { return o.probs }

// Mass returns the total weight before normalization (1 for uniform
// objects). NN ranks are preserved by normalization whenever all objects
// share the same mass.
func (o *Object) Mass() float64 { return o.mass }

// MBR returns the minimum bounding rectangle of the instances.
func (o *Object) MBR() geom.Rect { return o.mbr }

// MinDist returns δmin(q, O): the distance from q to the closest instance.
func (o *Object) MinDist(q geom.Point) float64 {
	return math.Sqrt(geom.MinSqDistToPoints(q, o.Points()))
}

// MaxDist returns δmax(q, O): the distance from q to the farthest instance.
func (o *Object) MaxDist(q geom.Point) float64 {
	return math.Sqrt(geom.MaxSqDistToPoints(q, o.Points()))
}

// String formats a short description of the object.
func (o *Object) String() string {
	if o.label != "" {
		return fmt.Sprintf("Object(%d %q, %d×%dd)", o.id, o.label, o.Len(), o.Dim())
	}
	return fmt.Sprintf("Object(%d, %d×%dd)", o.id, o.Len(), o.Dim())
}
