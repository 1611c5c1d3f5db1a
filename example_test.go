package spatialdom_test

import (
	"context"
	"fmt"
	"log"

	"spatialdom"
)

// Example shows the complete happy path: build objects, index them, and
// ask for the NN candidates that cover every N1∪N2∪N3 function.
func Example() {
	near, err := spatialdom.NewObject(1, [][]float64{{1, 1}, {2, 2}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	far, err := spatialdom.NewObject(2, [][]float64{{50, 50}, {51, 51}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	query, err := spatialdom.NewObject(0, [][]float64{{0, 0}, {1, 0}}, nil)
	if err != nil {
		log.Fatal(err)
	}

	idx, err := spatialdom.NewIndex([]*spatialdom.Object{near, far})
	if err != nil {
		log.Fatal(err)
	}
	res := idx.Search(query, spatialdom.PSD)
	fmt.Println(res.IDs())
	// Output: [1]
}

// ExampleNewObject demonstrates multi-valued objects: weights are
// normalized to probabilities.
func ExampleNewObject() {
	o, err := spatialdom.NewObject(7, [][]float64{{0, 0}, {3, 4}}, []float64{1, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(o.Len(), o.Dim(), o.Prob(0), o.Prob(1))
	// Output: 2 2 0.25 0.75
}

// ExampleNewChecker decides a single pairwise dominance.
func ExampleNewChecker() {
	q, _ := spatialdom.NewObject(0, [][]float64{{0}}, nil)
	u, _ := spatialdom.NewObject(1, [][]float64{{1}, {2}}, nil)
	v, _ := spatialdom.NewObject(2, [][]float64{{5}, {6}}, nil)

	checker := spatialdom.NewChecker(q, spatialdom.SSD, spatialdom.AllFilters)
	fmt.Println(checker.Dominates(u, v), checker.Dominates(v, u))
	// Output: true false
}

// ExampleNearestNeighbor scores objects under a specific NN function.
func ExampleNearestNeighbor() {
	q, _ := spatialdom.NewObject(0, [][]float64{{0, 0}}, nil)
	a, _ := spatialdom.NewObject(1, [][]float64{{3, 4}}, nil)
	b, _ := spatialdom.NewObject(2, [][]float64{{6, 8}}, nil)

	nn := spatialdom.NearestNeighbor([]*spatialdom.Object{a, b}, q, spatialdom.ExpectedDistFunc())
	fmt.Println(nn.ID())
	// Output: 1
}

// ExampleQuantileDistFunc: the φ-quantile of the pairwise distance
// distribution is itself an N1 function.
func ExampleQuantileDistFunc() {
	q, _ := spatialdom.NewObject(0, [][]float64{{0}}, nil)
	u, _ := spatialdom.NewObject(1, [][]float64{{1}, {2}, {3}, {4}}, nil)

	median := spatialdom.QuantileDistFunc(0.5)
	scores := median.Scores([]*spatialdom.Object{u}, q)
	fmt.Println(scores[0])
	// Output: 2
}

// ExampleIndex_SearchKCtx asks for the 2-NN candidates through the full
// call: every object dominated by fewer than two others, guaranteed to
// contain the top-2 under every covered function.
func ExampleIndex_SearchKCtx() {
	q, _ := spatialdom.NewObject(0, [][]float64{{0}}, nil)
	a, _ := spatialdom.NewObject(1, [][]float64{{1}}, nil)
	b, _ := spatialdom.NewObject(2, [][]float64{{2}}, nil)
	c, _ := spatialdom.NewObject(3, [][]float64{{3}}, nil)

	idx, _ := spatialdom.NewIndex([]*spatialdom.Object{a, b, c})
	fmt.Println(idx.Search(q, spatialdom.SSD).IDs())
	band, _ := idx.SearchKCtx(context.Background(), q, spatialdom.SSD, 2,
		spatialdom.SearchOptions{Filters: spatialdom.AllFilters})
	fmt.Println(band.IDs())
	// Output:
	// [1]
	// [1 2]
}

// ExampleSpatialSkyline computes a classic spatial skyline — the
// single-instance special case of the dominance framework.
func ExampleSpatialSkyline() {
	points := [][]float64{{1, 0}, {2, 0}, {0, 2}}
	query := [][]float64{{0, 0}, {0, 1}}
	fmt.Println(spatialdom.SpatialSkyline(points, query))
	// Output: [0 2]
}

// ExampleManhattan runs the search under the L1 metric.
func ExampleManhattan() {
	q, _ := spatialdom.NewObject(0, [][]float64{{0, 0}}, nil)
	a, _ := spatialdom.NewObject(1, [][]float64{{1, 1}}, nil)
	b, _ := spatialdom.NewObject(2, [][]float64{{9, 9}}, nil)

	idx, _ := spatialdom.NewIndex([]*spatialdom.Object{a, b})
	res, _ := idx.SearchKCtx(context.Background(), q, spatialdom.SSSD, 1, spatialdom.SearchOptions{
		Filters: spatialdom.AllFilters,
		Metric:  spatialdom.Manhattan,
	})
	fmt.Println(res.IDs())
	// Output: [1]
}
