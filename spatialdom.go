// Package spatialdom is a Go implementation of optimal spatial dominance
// operators for nearest-neighbor candidate (NNC) search over objects with
// multiple instances, reproducing Wang et al., "Optimal Spatial Dominance:
// An Effective Search of Nearest Neighbor Candidates", SIGMOD 2015.
//
// An object (and the query itself) is a set of weighted instances — a
// discrete uncertain object or a normalized multi-valued object. Because
// there are many reasonable NN functions for such objects, the library
// computes a set of NN candidates that provably contains the nearest
// neighbor under every function of a chosen family:
//
//	op         optimal for            candidate set
//	SSD        N1 (all-pairs)         smallest
//	SSSD       N1 ∪ N2 (+worlds)      ⊇ SSD's
//	PSD        N1 ∪ N2 ∪ N3 (+EMD…)   ⊇ SSSD's
//	FSD, F+SD  correct, not complete  largest (baselines)
//
// # Quick start
//
//	a, _ := spatialdom.NewObject(1, [][]float64{{1, 2}, {2, 3}}, nil)
//	b, _ := spatialdom.NewObject(2, [][]float64{{8, 8}, {9, 9}}, nil)
//	q, _ := spatialdom.NewObject(0, [][]float64{{0, 0}, {1, 1}}, nil)
//	idx, _ := spatialdom.NewIndex([]*spatialdom.Object{a, b})
//	res := idx.Search(q, spatialdom.PSD)
//	fmt.Println(res.IDs()) // NN candidates under every N1∪N2∪N3 function
//
// The facade re-exports the stable surface of the internal packages:
// internal/core (dominance operators, Algorithm 1, k-skybands, streaming),
// internal/uncertain (the object model), internal/nnfunc (the NN-function
// families), internal/datagen (evaluation datasets), internal/dataio (CSV
// import/export) and internal/diskindex (the page-file-resident index,
// see BuildDiskIndex). The paper's figures are `nnc figure`.
package spatialdom

import (
	"context"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/geom"
	"spatialdom/internal/nnfunc"
	"spatialdom/internal/uncertain"
)

// Point is a point in d-dimensional Euclidean space.
type Point = geom.Point

// Object is an object with multiple weighted instances.
type Object = uncertain.Object

// NewObject builds an object from instance coordinate rows and optional
// weights (nil = uniform). Weights are normalized to probabilities.
func NewObject(id int, instances [][]float64, weights []float64) (*Object, error) {
	pts := make([]geom.Point, len(instances))
	for i, row := range instances {
		pts[i] = geom.Point(row)
	}
	return uncertain.New(id, pts, weights)
}

// Operator selects a spatial dominance operator.
type Operator = core.Operator

// The spatial dominance operators, ordered along the cover chain
// F-SD ⊂ P-SD ⊂ SS-SD ⊂ S-SD.
const (
	// SSD (stochastic SD) is optimal w.r.t. the all-pairs family N1.
	SSD = core.SSD
	// SSSD (strict stochastic SD) is optimal w.r.t. N1 ∪ N2.
	SSSD = core.SSSD
	// PSD (peer SD) is optimal w.r.t. N1 ∪ N2 ∪ N3.
	PSD = core.PSD
	// FSD is instance-level full spatial dominance (correct, not complete).
	FSD = core.FSD
	// FPlusSD is the MBR-level baseline of Emrich et al.
	FPlusSD = core.FPlusSD
)

// Operators lists every operator in cover order.
var Operators = core.Operators

// Index organizes objects for NN-candidate search.
type Index = core.Index

// NewIndex builds a search index over the objects (unique IDs, one shared
// dimensionality).
func NewIndex(objs []*Object) (*Index, error) { return core.NewIndex(objs) }

// Candidate, Result and SearchOptions describe a search outcome; see the
// core package for field documentation. IOStats (Result.IO) carries the
// storage-access counters of a disk-backed search and is zero in memory.
type (
	Candidate     = core.Candidate
	Result        = core.Result
	SearchOptions = core.SearchOptions
	FilterConfig  = core.FilterConfig
	Stats         = core.Stats
	IOStats       = core.IOStats
)

// AllFilters enables every Section 5.1 filtering technique.
var AllFilters = core.AllFilters

// Backend is the storage interface the query engine traverses; Index and
// DiskIndex are the built-in implementations. Custom storage layers
// (remote shards, column stores, caches) implement it and pass through
// SearchBackend to get the full Algorithm 1 feature set — filters,
// metrics, k-skyband, cancellation, progressive emission.
type (
	Backend      = core.Backend
	NodeRef      = core.NodeRef
	ObjRef       = core.ObjRef
	BackendEntry = core.BackendEntry
)

// SearchBackend runs Algorithm 1 generalized to the k-skyband over any
// Backend; see core.SearchBackend.
func SearchBackend(ctx context.Context, b Backend, q *Object, op Operator, k int, opts SearchOptions) (*Result, error) {
	return core.SearchBackend(ctx, b, q, op, k, opts)
}

// KSearcher is the context-aware search call over a whole index; *Index
// and *DiskIndex both satisfy it and are safe to call from many goroutines
// at once.
type KSearcher = core.KSearcher

// Metric abstracts the instance distance; the paper's techniques extend to
// any metric (Section 2.1). Pass one via SearchOptions.Metric or
// NewCheckerMetric; nil/default is Euclidean.
type Metric = geom.Metric

// The built-in metrics.
var (
	Euclidean = geom.Euclidean
	Manhattan = geom.Manhattan
	Chebyshev = geom.Chebyshev
)

// NewCheckerMetric is NewChecker under an arbitrary metric.
func NewCheckerMetric(query *Object, op Operator, cfg FilterConfig, m Metric) *Checker {
	return core.NewCheckerMetric(query, op, cfg, m)
}

// Checker decides pairwise spatial dominance for a fixed query.
type Checker = core.Checker

// Note on k-NN candidates: SearchKCtx with k > 1 generalizes Search to the
// k-skyband — every object dominated by fewer than k others — which is
// guaranteed to contain the top-k objects of every covered NN function.

// NewChecker returns a dominance checker for the query under the operator.
func NewChecker(query *Object, op Operator, cfg FilterConfig) *Checker {
	return core.NewChecker(query, op, cfg)
}

// --- NN functions --------------------------------------------------------

// NNFunc is an NN ranking function; smaller scores rank closer.
type NNFunc = nnfunc.Func

// Family identifies an NN-function family (N1, N2, N3).
type Family = nnfunc.Family

// The three families.
const (
	N1 = nnfunc.N1
	N2 = nnfunc.N2
	N3 = nnfunc.N3
)

// N1 functions (all-pairs aggregates).
var (
	MinDistFunc      = nnfunc.MinDist
	MaxDistFunc      = nnfunc.MaxDist
	ExpectedDistFunc = nnfunc.ExpectedDist
	QuantileDistFunc = nnfunc.QuantileDist
	QuantileMixFunc  = nnfunc.QuantileMix
)

// N2 functions (possible-world based).
var (
	NNProbFunc       = nnfunc.NNProb
	ExpectedRankFunc = nnfunc.ExpectedRank
	GlobalTopKFunc   = nnfunc.GlobalTopK
)

// N3 functions (selected pairs).
var (
	HausdorffFunc        = nnfunc.Hausdorff
	PartialHausdorffFunc = nnfunc.PartialHausdorff
	MeanHausdorffFunc    = nnfunc.MeanHausdorff
	SumMinDistFunc       = nnfunc.SumMinDist
	EMDFunc              = nnfunc.EMD
	NetflowFunc          = nnfunc.Netflow
)

// NearestNeighbor returns the NN object under f.
func NearestNeighbor(objs []*Object, q *Object, f NNFunc) *Object {
	return nnfunc.NN(objs, q, f)
}

// RankObjects orders the objects by non-decreasing score under f.
func RankObjects(objs []*Object, q *Object, f NNFunc) []*Object {
	return nnfunc.Ranking(objs, q, f)
}

// --- datasets and experiments ----------------------------------------------

// DatasetParams mirrors Table 2 of the paper; see internal/datagen.
type DatasetParams = datagen.Params

// Dataset is a generated evaluation dataset.
type Dataset = datagen.Dataset

// GenerateDataset builds a deterministic synthetic dataset.
func GenerateDataset(p DatasetParams) *Dataset { return datagen.Generate(p) }

// SpatialSkyline computes the classic spatial skyline (Sharifzadeh &
// Shahabi): the single-instance special case of the dominance framework.
// It returns the indices of points not spatially dominated w.r.t. the
// query points, in non-decreasing order of distance to the query.
func SpatialSkyline(points, query [][]float64) []int {
	ps := make([]geom.Point, len(points))
	for i, row := range points {
		ps[i] = geom.Point(row)
	}
	qs := make([]geom.Point, len(query))
	for i, row := range query {
		qs[i] = geom.Point(row)
	}
	return core.SpatialSkyline(ps, qs)
}

// LoadObjectsCSV reads objects from a CSV file in the dataio format
// (object_id, instance_idx, weight, x1, ..., xd).
func LoadObjectsCSV(path string) ([]*Object, error) { return dataio.ReadFile(path) }

// SaveObjectsCSV writes objects to a CSV file in the dataio format.
func SaveObjectsCSV(path string, objs []*Object) error { return dataio.WriteFile(path, objs) }
