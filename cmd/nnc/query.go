package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"spatialdom"
	"spatialdom/internal/core"
	"spatialdom/internal/dataio"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/nnfunc"
)

// query prints the candidate sets of every dominance operator side by
// side — the paper's motivation in one screen — from the in-memory index
// or, with -disk, from a page file through a bounded buffer pool, where
// the I/O columns say what each query cost.
func query(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	var src dataio.Source
	var w workload
	src.Flags(fs)
	w.flags(fs, 1, "number of queries to run")
	var (
		op          = fs.String("op", "all", "operator: ssd, sssd, psd, fsd, f+sd, all")
		k           = fs.Int("k", 1, "k-NN candidates: objects dominated by fewer than k others")
		queryInput  = fs.String("query-input", "", "take the queries from this CSV file (its first -queries objects) instead of drawing them")
		progressive = fs.Bool("progressive", false, "stream candidates as they are proven")
		functions   = fs.Bool("functions", true, "also print the nearest neighbor under each implemented NN function")
		disk        = fs.String("disk", "", "search this page file (`nnc build -out` with the same dataset flags) instead of an in-memory index")
		frames      = fs.Int("frames", 128, "buffer pool frames for -disk")
		objCap      = fs.Int("objcache", diskindex.DefaultObjCacheCap, "decoded-object LRU capacity for -disk (0 disables)")
		warm        = fs.Bool("warm", false, "keep the -disk object cache warm across queries (default: cold per query)")
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *k < 1 {
		return usagef("-k=%d must be at least 1", *k)
	}
	ops := core.Operators
	if *op != "all" {
		o, err := core.ParseOperator(*op)
		if err != nil {
			return usagef("%v", err)
		}
		ops = []core.Operator{o}
	}
	ds, label, err := src.Load()
	if err != nil {
		return err
	}
	queries, err := w.draw(&src, ds)
	if err != nil {
		return err
	}
	if *queryInput != "" {
		if queries, err = dataio.ReadFile(*queryInput); err != nil {
			return err
		}
		if len(queries) > w.count {
			queries = queries[:w.count]
		}
	}

	var idx core.KSearcher
	cold := func() {}
	if *disk != "" {
		ix, err := spatialdom.OpenDiskIndex(*disk, *frames)
		if err != nil {
			return err
		}
		defer ix.Close()
		ix.SetObjCacheCap(*objCap)
		if !*warm {
			cold = ix.ResetCache
		}
		idx, label = ix, fmt.Sprintf("%s in %s (%d objects)", label, *disk, ix.Len())
	} else if idx, err = core.NewIndex(ds.Objects); err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset %s: %d queries, k=%d\n\n", label, len(queries), *k)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\toperator\tcoverage\tcandidates\tpage accesses\treads\thit rate\tobj cache hits\tevictions\ttime\tIDs (first 12)")
	for qi, q := range queries {
		for _, o := range ops {
			opts := core.SearchOptions{Filters: core.AllFilters}
			if *progressive {
				opts.OnCandidate = func(c core.Candidate) {
					fmt.Fprintf(out, "  [q%d %s +%v] candidate #%d: object %d (min dist %.1f)\n",
						qi, o, c.Elapsed.Round(0), c.Rank+1, c.Object.ID(), c.MinDist)
				}
			}
			cold()
			res, err := idx.SearchKCtx(context.Background(), q, o, *k, opts)
			if err != nil {
				return err
			}
			ids := res.IDs()
			sort.Ints(ids)
			if len(ids) > 12 {
				ids = ids[:12]
			}
			acc := res.IO.Hits + res.IO.Misses
			rate := 0.0
			if acc > 0 {
				rate = float64(res.IO.Hits) / float64(acc) * 100
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%d\t%.0f%%\t%d\t%d\t%v\t%v\n",
				qi, o, coverage[o], len(res.Candidates), acc, res.IO.Reads, rate,
				res.IO.CacheHits, res.IO.CacheEvictions, res.Elapsed.Round(0), ids)
		}
	}
	if err := tw.Flush(); err != nil || !*functions {
		return err
	}

	fmt.Fprintln(out, "\nnearest neighbor per NN function (must lie inside the matching candidate set):")
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tfamily\tfunction\tNN object")
	for qi, q := range queries {
		// N2 functions are O(n²·m) per query instance: they rank the 200
		// objects closest by minimal distance, the others the whole dataset.
		near := nnfunc.Ranking(ds.Objects, q, nnfunc.MinDist())
		if len(near) > 200 {
			near = near[:200]
		}
		for _, fam := range []nnfunc.Family{nnfunc.N1, nnfunc.N3, nnfunc.N2} {
			objs, note := ds.Objects, ""
			if fam == nnfunc.N2 {
				objs, note = near, fmt.Sprintf("(over %d closest)", len(near))
			}
			for _, f := range nnfunc.AllSuites()[fam] {
				fmt.Fprintf(tw, "%d\t%v\t%s\t%d\t%s\n", qi, fam, f.Name(), nnfunc.NN(objs, q, f).ID(), note)
			}
		}
	}
	return tw.Flush()
}

// coverage names, by operator, the NN-function families whose nearest
// neighbor the operator's candidates are guaranteed to contain.
var coverage = [...]string{core.SSD: "N1", core.SSSD: "N1+N2", core.PSD: "N1+N2+N3", core.FSD: "N1+N2+N3", core.FPlusSD: "N1+N2+N3"}
