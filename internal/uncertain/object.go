// Package uncertain models objects with multiple instances: discrete
// uncertain objects (each instance carries an occurrence probability) and
// multi-valued objects (each instance carries a weight that is normalized to
// a probability, Section 2.1 of the paper). A query is itself such an
// object.
//
// Each object owns a minimum bounding rectangle, a lazily built local R-tree
// with fanout 4 (matching the paper's experimental setup), and — for query
// objects — the convex hull of its instances, which is the only part of the
// query that dominance checks need to consult (Section 5.1.2).
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"spatialdom/internal/geom"
	"spatialdom/internal/rtree"
)

// LocalTreeFanout is the fanout of the per-object instance R-tree, matching
// the paper's experiments ("its instances are kept in a local R-Tree with
// fan-out 4").
const LocalTreeFanout = 4

// Common construction errors.
var (
	ErrNoInstances   = errors.New("uncertain: object needs at least one instance")
	ErrDimMismatch   = errors.New("uncertain: instances disagree in dimensionality")
	ErrBadWeight     = errors.New("uncertain: weights must be finite and non-negative")
	ErrZeroMass      = errors.New("uncertain: total weight mass must be positive")
	ErrBadCoordinate = errors.New("uncertain: coordinates must be finite")
	ErrWeightCount   = errors.New("uncertain: weight count must match instance count")
)

// Object is an object with multiple weighted instances. Construct with New;
// the zero value is not usable. Objects are immutable after construction and
// safe for concurrent use.
type Object struct {
	id    int
	label string
	pts   []geom.Point
	probs []float64
	mass  float64 // original total weight before normalization
	mbr   geom.Rect

	treeOnce sync.Once
	tree     *rtree.Tree

	hullOnce sync.Once
	hull     []int
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
	d := len(pts[0])
	if d == 0 {
		return nil, ErrDimMismatch
	}
	cp := make([]geom.Point, len(pts))
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("%w: instance %d has dim %d, want %d", ErrDimMismatch, i, len(p), d)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: instance %d", ErrBadCoordinate, i)
			}
		}
		cp[i] = p.Clone()
	}
	probs := make([]float64, len(pts))
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
	return &Object{
		id:    id,
		pts:   cp,
		probs: probs,
		mass:  mass,
		mbr:   geom.BoundingRect(cp),
	}, nil
}

// FromNormalized builds an object from instances whose probabilities are
// already normalized, copying the probability bits verbatim — no ÷mass
// renormalization. This is the wire-decode constructor: a router
// reassembling shard answers (or forwarding a query) must reproduce the
// exact float64 values the shard engine computed with, and New's
// renormalization (w/Σw with Σw ≈ 1 but rarely exactly 1) would perturb
// the low bits and with them every downstream dominance decision. The
// probabilities must be finite and non-negative with a positive sum, which
// is otherwise trusted, and Mass reports 1. Instance slices are copied.
func FromNormalized(id int, pts []geom.Point, probs []float64) (*Object, error) {
	if len(pts) == 0 {
		return nil, ErrNoInstances
	}
	if len(probs) != len(pts) {
		return nil, fmt.Errorf("%w: %d probabilities for %d instances", ErrWeightCount, len(probs), len(pts))
	}
	d := len(pts[0])
	coords := make([]float64, 0, len(pts)*d)
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("%w: instance %d has dim %d, want %d", ErrDimMismatch, i, len(p), d)
		}
		coords = append(coords, p...)
	}
	return FromSlabs(id, d, coords, append([]float64(nil), probs...))
}

// FromSlabs is FromNormalized for a caller that already holds the object in
// its flat form — one slab of len(probs)·dim coordinates, instance after
// instance, and one slab of normalized probabilities — and gives both up:
// the object keeps the slabs and its instances are views into coords, so
// neither may be touched afterwards. Like FromNormalized it keeps the
// probability bits verbatim and reports Mass 1. Coordinates must be finite,
// probabilities finite and non-negative with a positive sum.
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
	pts := make([]geom.Point, len(probs))
	for i := range pts {
		pts[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Object{
		id:    id,
		pts:   pts,
		probs: probs,
		mass:  1,
		mbr:   geom.BoundingRect(pts),
	}, nil
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
func (o *Object) Len() int { return len(o.pts) }

// Dim returns the dimensionality of the instances.
func (o *Object) Dim() int { return len(o.pts[0]) }

// Instance returns the i-th instance point. The returned slice must not be
// modified.
func (o *Object) Instance(i int) geom.Point { return o.pts[i] }

// Prob returns the probability of the i-th instance.
func (o *Object) Prob(i int) float64 { return o.probs[i] }

// Points returns the instance points. The returned slice must not be
// modified.
func (o *Object) Points() []geom.Point { return o.pts }

// Probs returns the instance probabilities. The returned slice must not be
// modified.
func (o *Object) Probs() []float64 { return o.probs }

// Mass returns the total weight before normalization (1 for uniform
// objects). NN ranks are preserved by normalization whenever all objects
// share the same mass.
func (o *Object) Mass() float64 { return o.mass }

// MBR returns the minimum bounding rectangle of the instances.
func (o *Object) MBR() geom.Rect { return o.mbr }

// LocalTree returns the per-object instance R-tree (fanout 4), building it
// on first use. Entry IDs are instance indices.
//
//nnc:coldpath sync.Once lazy build; every later call returns the cached tree
func (o *Object) LocalTree() *rtree.Tree {
	o.treeOnce.Do(func() {
		entries := make([]rtree.Entry, len(o.pts))
		for i, p := range o.pts {
			entries[i] = rtree.Entry{Rect: geom.PointRect(p), ID: int64(i)}
		}
		o.tree = rtree.Bulk(entries, LocalTreeFanout)
	})
	return o.tree
}

// HullIndices returns the indices of the instances on the convex hull (see
// geom.ConvexHullIndices for the per-dimensionality guarantees), computing
// them on first use.
//
//nnc:coldpath sync.Once lazy build; every later call returns the cached indices
func (o *Object) HullIndices() []int {
	o.hullOnce.Do(func() { o.hull = geom.ConvexHullIndices(o.pts) })
	return o.hull
}

// HullPoints returns the hull instances as points.
func (o *Object) HullPoints() []geom.Point {
	idx := o.HullIndices()
	pts := make([]geom.Point, len(idx))
	for i, j := range idx {
		pts[i] = o.pts[j]
	}
	return pts
}

// MinDist returns δmin(q, O): the distance from q to the closest instance.
func (o *Object) MinDist(q geom.Point) float64 {
	return math.Sqrt(geom.MinSqDistToPoints(q, o.pts))
}

// MaxDist returns δmax(q, O): the distance from q to the farthest instance.
func (o *Object) MaxDist(q geom.Point) float64 {
	return math.Sqrt(geom.MaxSqDistToPoints(q, o.pts))
}

// String formats a short description of the object.
func (o *Object) String() string {
	if o.label != "" {
		return fmt.Sprintf("Object(%d %q, %d×%dd)", o.id, o.label, o.Len(), o.Dim())
	}
	return fmt.Sprintf("Object(%d, %d×%dd)", o.id, o.Len(), o.Dim())
}

// SameDistribution reports whether two objects define exactly the same
// discrete distribution over points (same instance/probability multiset).
// It is used by the SD operators' U_Q ≠ V_Q side condition. Instances are
// matched by exact coordinates; probabilities are compared with eps
// tolerance.
func SameDistribution(a, b *Object, eps float64) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	// Aggregate duplicate points so representation differences don't matter.
	acc := func(o *Object) map[string]float64 {
		m := make(map[string]float64, o.Len())
		for i, p := range o.pts {
			m[pointKey(p)] += o.probs[i]
		}
		return m
	}
	ma, mb := acc(a), acc(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, va := range ma {
		vb, ok := mb[k]
		if !ok || math.Abs(va-vb) > eps {
			return false
		}
	}
	return true
}

func pointKey(p geom.Point) string {
	b := make([]byte, 0, len(p)*8)
	for _, v := range p {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(u>>s))
		}
	}
	return string(b)
}
