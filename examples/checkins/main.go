// Checkins: location-uncertain users in the style of the GoWalla dataset.
// Each user is a cloud of 2-d check-ins around a few personal hotspots;
// the query is an imprecise region of interest. The example streams NN
// candidates progressively — Algorithm 1 emits each candidate the moment
// it is proven undominated, so a UI can render results while the search
// is still running (Figure 14's progressive property).
//
//	go run ./examples/checkins
package main

import (
	"context"
	"fmt"
	"log"

	"spatialdom"
	"spatialdom/internal/datagen"
)

func main() {
	// 800 users whose check-ins cluster around shared city hotspots —
	// heavily overlapping objects, the hard case for candidate search.
	ds := datagen.Generate(datagen.Params{
		N:        800,
		M:        25,
		Centers:  datagen.GWLike,
		Clusters: 30,
		Seed:     7,
	})
	idx, err := spatialdom.NewIndex(ds.Objects)
	if err != nil {
		log.Fatal(err)
	}
	// A query region given as a handful of probe points.
	query := ds.Queries(1, 10, 300, 99)[0]

	fmt.Printf("searching %d users for NN candidates near the query region...\n\n", idx.Len())

	// Progressive consumption: the callback fires as soon as a candidate
	// is proven; the final result arrives when the traversal completes.
	count := 0
	res, err := idx.SearchKCtx(context.Background(), query, spatialdom.SSSD, 1, spatialdom.SearchOptions{
		Filters: spatialdom.AllFilters,
		OnCandidate: func(c spatialdom.Candidate) {
			count++
			fmt.Printf("  +%8v  candidate %2d: user %4d (closest check-in %.0fm away)\n",
				c.Elapsed.Round(0), c.Rank+1, c.Object.ID(), c.MinDist)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch finished in %v: %d candidates out of %d users (%.1f%%)\n",
		res.Elapsed.Round(0), len(res.Candidates), idx.Len(),
		100*float64(len(res.Candidates))/float64(idx.Len()))
	if count != len(res.Candidates) {
		log.Fatalf("BUG: callback fired %d times for %d candidates", count, len(res.Candidates))
	}

	// The trade-off knob: SS-SD covers the possible-world functions most
	// location apps use (NN probability, expected rank); S-SD would be
	// smaller but only safe for all-pairs aggregates; P-SD adds EMD-style
	// functions at the cost of more candidates.
	fmt.Println("\ncandidate counts per operator on the same query:")
	for _, op := range spatialdom.Operators {
		r := idx.Search(query, op)
		fmt.Printf("  %-5v %4d candidates  (%v)\n", op, len(r.Candidates), r.Elapsed.Round(0))
	}
}
