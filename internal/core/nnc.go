package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spatialdom/internal/geom"
	"spatialdom/internal/rtree"
	"spatialdom/internal/uncertain"
)

// Index organizes a set of objects for NN-candidate search: object MBRs in
// a global R-tree (page-derived fanout, as in Section 6) plus an ID lookup.
// An Index is immutable after construction and safe for concurrent
// searches; each Search uses its own Checker.
type Index struct {
	list []*uncertain.Object
	pos  map[int]int // object ID → position in list
	tree *rtree.Tree
	dim  int
}

// GlobalPageBytes is the usable page payload the global R-tree fanout is
// derived from: the paper's 4096-byte physical page minus the pager's
// 8-byte per-page integrity trailer. Deriving fanout from the payload
// keeps the in-memory tree node-for-node identical to the disk-resident
// one, under bulk load and under any sequence of inserts and deletes
// (diskindex.TestMemDiskSameShape).
const GlobalPageBytes = 4096 - 8

// Errors returned by NewIndex.
var (
	ErrNoObjects   = errors.New("core: index needs at least one object")
	ErrDuplicateID = errors.New("core: duplicate object ID")
	ErrIndexDimMix = errors.New("core: objects disagree in dimensionality")
)

// NewIndex builds an index over the given objects. Object IDs must be
// unique and dimensionalities must agree.
func NewIndex(objs []*uncertain.Object) (*Index, error) {
	if len(objs) == 0 {
		return nil, ErrNoObjects
	}
	dim := objs[0].Dim()
	pos := make(map[int]int, len(objs))
	entries := make([]rtree.Entry, len(objs))
	for i, o := range objs {
		if o.Dim() != dim {
			return nil, fmt.Errorf("%w: object %d has dim %d, want %d", ErrIndexDimMix, o.ID(), o.Dim(), dim)
		}
		if _, dup := pos[o.ID()]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, o.ID())
		}
		pos[o.ID()] = i
		entries[i] = rtree.Entry{Rect: o.MBR(), ID: int64(o.ID())}
	}
	fan := rtree.DefaultFanout(GlobalPageBytes, dim)
	list := make([]*uncertain.Object, len(objs))
	copy(list, objs)
	return &Index{
		list: list,
		pos:  pos,
		tree: rtree.Bulk(entries, fan),
		dim:  dim,
	}, nil
}

// Len returns the number of indexed objects.
func (idx *Index) Len() int { return len(idx.list) }

// Dim returns the dimensionality of the indexed objects.
func (idx *Index) Dim() int { return idx.dim }

// Objects returns the indexed objects, in construction order until the
// first Delete and in no particular order after it. The returned slice must
// not be modified.
func (idx *Index) Objects() []*uncertain.Object { return idx.list }

// Object returns the object with the given ID, or nil.
func (idx *Index) Object(id int) *uncertain.Object {
	if i, ok := idx.pos[id]; ok {
		return idx.list[i]
	}
	return nil
}

// Candidate is one NN candidate, in emission order.
type Candidate struct {
	Object *uncertain.Object
	// Rank is the emission position (0 = first candidate output).
	Rank int
	// MinDist is min(U_Q), the exact smallest query–object pair distance,
	// which is the order Algorithm 1 examines objects in.
	MinDist float64
	// Elapsed is the time from search start to this candidate's emission —
	// the progressive-property measurement of Figure 14.
	Elapsed time.Duration
	// Dominators is the number of other candidates dominating this one.
	// It is always 0 for k = 1 and < k for a k-skyband search.
	Dominators int
}

// Result is the outcome of an NNC search.
type Result struct {
	Operator   Operator
	Candidates []Candidate
	// Examined counts objects that reached an instance-level dominance
	// evaluation (Line 5–11 of Algorithm 1).
	Examined int
	Elapsed  time.Duration
	Stats    Stats
	// IO reports the storage-access delta of this search. It is the zero
	// value for memory-resident backends.
	IO IOStats
	// Incomplete marks a degraded search: the traversal finished but some
	// subtrees or objects were unreadable (quarantined pages), so
	// candidates from those regions may be missing. The accompanying
	// *PartialResultError carries the detailed counts and causes; the flag
	// is mirrored here so results that travel without their error (batch
	// slots, stream summaries) still declare themselves partial.
	Incomplete bool
}

// Objects returns the candidate objects in emission order.
func (r *Result) Objects() []*uncertain.Object {
	out := make([]*uncertain.Object, len(r.Candidates))
	for i, c := range r.Candidates {
		out[i] = c.Object
	}
	return out
}

// IDs returns the candidate object IDs in emission order.
func (r *Result) IDs() []int {
	out := make([]int, len(r.Candidates))
	for i, c := range r.Candidates {
		out[i] = c.Object.ID()
	}
	return out
}

// SearchOptions tunes an NNC search.
type SearchOptions struct {
	// Filters selects the Section 5.1 filtering techniques (AllFilters by
	// default via Search; the zero value is the brute-force configuration).
	Filters FilterConfig
	// OnCandidate, when non-nil, is invoked for each candidate the moment
	// it is proven undominated — the progressive property of Algorithm 1.
	OnCandidate func(Candidate)
	// Metric selects the instance distance (nil = Euclidean).
	Metric geom.Metric
}

// metric resolves the options' metric, defaulting to Euclidean.
func (o SearchOptions) metric() geom.Metric {
	if o.Metric == nil {
		return geom.Euclidean
	}
	return o.Metric
}

// Search is Algorithm 1 as published: every filtering technique enabled,
// k = 1, no cancellation. It is shorthand for SearchKCtx — the full call,
// which every other knob (k, filters, metric, OnCandidate, ctx)
// goes through.
func (idx *Index) Search(q *uncertain.Object, op Operator) *Result {
	// The memory backend cannot fail and a background context never
	// cancels, so the error is always nil.
	res, _ := idx.SearchKCtx(context.Background(), q, op, 1, SearchOptions{Filters: AllFilters})
	return res
}
