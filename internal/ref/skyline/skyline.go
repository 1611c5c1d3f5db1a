// Package skyline is the spatial skyline of [30], which the root package
// serves and the server does not import.
package skyline

import (
	"spatialdom/internal/core"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// SpatialSkyline computes the classic spatial skyline of Sharifzadeh and
// Shahabi (VLDB 2006) — the special case of the paper's framework where
// every object has exactly one instance: point p spatially dominates p'
// w.r.t. query points Q when p is at least as close to every q ∈ Q and
// strictly closer to at least one. The skyline is every non-dominated
// point.
//
// Under single-instance objects the three proposed operators coincide
// (Theorem 3 degenerates further: with one instance per object, P-SD is
// exactly the point-wise ⪯Q test), so this is both a useful utility and a
// consistency check for the general machinery; TestSpatialSkyline verifies
// the equivalence.
//
// Returned indices are in non-decreasing order of distance to the query's
// nearest point (the emission order of Algorithm 1).
func SpatialSkyline(points []geom.Point, query []geom.Point) []int {
	if len(points) == 0 || len(query) == 0 {
		return nil
	}
	objs := make([]*uncertain.Object, len(points))
	for i, p := range points {
		objs[i] = uncertain.MustNew(i, []geom.Point{p}, nil)
	}
	q := uncertain.MustNew(-1, query, nil)
	idx, err := core.NewIndex(objs)
	if err != nil {
		panic(err) // construction above guarantees validity
	}
	res := idx.Search(q, core.PSD)
	out := make([]int, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		out = append(out, c.Object.ID())
	}
	return out
}
