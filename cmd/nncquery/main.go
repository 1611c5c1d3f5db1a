// Command nncquery runs an ad-hoc NN-candidate query against a generated
// or CSV-loaded dataset, printing the candidate sets of every dominance
// operator side by side plus the nearest neighbor under each implemented
// NN function — the paper's motivation in one screen.
//
// Usage:
//
//	nncquery -n=2000 -m=10 -dist=anti -op=all
//	nncquery -n=500 -dist=gw -op=psd -progressive
//	nncquery -k=3 -dist=nba                 # 3-NN candidates (k-skyband)
//	nncquery -input=objects.csv             # first CSV object is the query
//	nncquery -input=objs.csv -query-input=q.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/nnfunc"
	"spatialdom/internal/uncertain"
)

func main() {
	var (
		n           = flag.Int("n", 1000, "number of objects")
		m           = flag.Int("m", 10, "average instances per object")
		mq          = flag.Int("mq", 8, "query instances")
		hd          = flag.Float64("hd", 400, "object MBB edge length")
		hq          = flag.Float64("hq", 200, "query MBB edge length")
		dist        = flag.String("dist", "anti", "dataset: anti, indep, house, nba, gw, clust")
		op          = flag.String("op", "all", "operator: ssd, sssd, psd, fsd, f+sd, all")
		k           = flag.Int("k", 1, "k-NN candidates: objects dominated by fewer than k others")
		seed        = flag.Int64("seed", 1, "generation seed")
		input       = flag.String("input", "", "load objects from a CSV file (object_id,instance_idx,weight,x1,...) instead of generating")
		queryInput  = flag.String("query-input", "", "load the query object from a CSV file (first object is used)")
		progressive = flag.Bool("progressive", false, "stream candidates as they are proven")
		functions   = flag.Bool("functions", true, "also print per-NN-function nearest neighbors")
	)
	flag.Parse()
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "-k=%d must be >= 1\n", *k)
		os.Exit(2)
	}

	var (
		objects []*uncertain.Object
		q       *uncertain.Object
		label   string
	)
	if *input != "" {
		var err error
		objects, err = dataio.ReadFile(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		label = *input
	} else {
		centers, err := datagen.ParseCenterDist(*dist)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ds := datagen.Generate(datagen.Params{N: *n, M: *m, EdgeLen: *hd, Centers: centers, Seed: *seed})
		objects = ds.Objects
		q = ds.Queries(1, *mq, *hq, *seed+99)[0]
		label = strings.ToUpper(*dist)
	}
	if *queryInput != "" {
		qs, err := dataio.ReadFile(*queryInput)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		q = qs[0]
	}
	if q == nil {
		// CSV input without -query-input: the first object becomes the
		// query and the rest are searched.
		q = objects[0]
		objects = objects[1:]
	}
	idx, err := core.NewIndex(objects)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("dataset %s: %d objects (dim %d), query with %d instances, k=%d\n\n",
		label, idx.Len(), idx.Dim(), q.Len(), *k)

	ops := []core.Operator{core.SSD, core.SSSD, core.PSD, core.FSD, core.FPlusSD}
	if *op != "all" {
		o, err := core.ParseOperator(*op)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ops = []core.Operator{o}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operator\tcoverage\tcandidates\ttime\tIDs (first 12)")
	for _, o := range ops {
		opts := core.SearchOptions{Filters: core.AllFilters}
		if *progressive {
			opts.OnCandidate = func(c core.Candidate) {
				fmt.Printf("  [%s +%v] candidate #%d: object %d (min dist %.1f)\n",
					o, c.Elapsed.Round(0), c.Rank+1, c.Object.ID(), c.MinDist)
			}
		}
		res, err := idx.SearchKCtx(context.Background(), q, o, *k, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ids := res.IDs()
		sort.Ints(ids)
		if len(ids) > 12 {
			ids = ids[:12]
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%v\n", o, coverage(o), len(res.Candidates), res.Elapsed.Round(0), ids)
	}
	tw.Flush()

	if *functions {
		fmt.Println("\nnearest neighbor per NN function (must lie inside the matching candidate set):")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "family\tfunction\tNN object")
		for _, fam := range []nnfunc.Family{nnfunc.N1, nnfunc.N3} {
			for _, f := range nnfunc.AllSuites()[fam] {
				nn := nnfunc.NN(objects, q, f)
				fmt.Fprintf(tw, "%v\t%s\t%d\n", fam, f.Name(), nn.ID())
			}
		}
		// N2 functions are O(n²·m) per query instance; restrict to the 200
		// closest objects so the tool stays interactive.
		subset := closestSubset(idx, q, 200)
		for _, f := range nnfunc.AllSuites()[nnfunc.N2] {
			nn := nnfunc.NN(subset, q, f)
			fmt.Fprintf(tw, "%v\t%s\t%d\t(over %d closest)\n", nnfunc.N2, f.Name(), nn.ID(), len(subset))
		}
		tw.Flush()
	}
}

func coverage(op core.Operator) string {
	switch op {
	case core.SSD:
		return "N1"
	case core.SSSD:
		return "N1+N2"
	default:
		return "N1+N2+N3"
	}
}

// closestSubset returns up to limit objects ordered by min distance from
// the query's instances, so the quadratic N2 functions stay interactive.
func closestSubset(idx *core.Index, q *uncertain.Object, limit int) []*uncertain.Object {
	type od struct {
		o *uncertain.Object
		d float64
	}
	objs := idx.Objects()
	all := make([]od, len(objs))
	for i, o := range objs {
		best := math.Inf(1)
		for j := 0; j < q.Len(); j++ {
			if d := o.MinDist(q.Instance(j)); d < best {
				best = d
			}
		}
		all[i] = od{o, best}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([]*uncertain.Object, len(all))
	for i, x := range all {
		out[i] = x.o
	}
	return out
}
