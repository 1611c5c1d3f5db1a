// Command datagen emits a deterministic evaluation dataset as CSV, one
// instance per row:
//
//	object_id,instance_idx,prob,x1,...,xd
//
// Usage:
//
//	datagen -n=1000 -m=40 -dist=anti -seed=1 > objects.csv
//	datagen -n=100 -dist=gw -queries=10 -mq=30 > workload.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"spatialdom/internal/datagen"
	"spatialdom/internal/uncertain"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "number of objects")
		m       = flag.Int("m", 40, "average instances per object")
		d       = flag.Int("d", 3, "dimensionality (ignored by 2-d/3-d-fixed distributions)")
		hd      = flag.Float64("hd", 400, "object MBB edge length")
		dist    = flag.String("dist", "anti", "dataset: anti, indep, house, nba, gw, clust")
		seed    = flag.Int64("seed", 1, "generation seed")
		queries = flag.Int("queries", 0, "emit a query workload of this size instead of objects")
		mq      = flag.Int("mq", 30, "query instances (with -queries)")
		hq      = flag.Float64("hq", 200, "query MBB edge length (with -queries)")
	)
	flag.Parse()

	centers, err := datagen.ParseCenterDist(*dist)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ds := datagen.Generate(datagen.Params{N: *n, Dim: *d, M: *m, EdgeLen: *hd, Centers: centers, Seed: *seed})
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	emit := func(objs []*uncertain.Object) {
		for _, o := range objs {
			for i := 0; i < o.Len(); i++ {
				fmt.Fprintf(out, "%d,%d,%s", o.ID(), i, strconv.FormatFloat(o.Prob(i), 'g', -1, 64))
				for _, v := range o.Instance(i) {
					fmt.Fprintf(out, ",%s", strconv.FormatFloat(v, 'g', -1, 64))
				}
				fmt.Fprintln(out)
			}
		}
	}
	if *queries > 0 {
		emit(ds.Queries(*queries, *mq, *hq, *seed+99))
		return
	}
	emit(ds.Objects)
}
