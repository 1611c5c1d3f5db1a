// Command nncdisk demonstrates the disk-resident index: it builds a page
// file holding the object heap and the global R-tree, then runs NNC
// queries through a bounded buffer pool and reports candidates together
// with the I/O profile (page accesses, physical reads, pool hit rate).
//
// Usage:
//
//	nncdisk -n=5000 -m=10 -op=sssd -frames=128
//	nncdisk -input=objects.csv -file=objects.pg -op=psd
//	nncdisk -file=objects.pg -reuse -op=ssd     # reopen an existing file
//
// Maintenance subcommands:
//
//	nncdisk fsck objects.pg            # page checksums + WAL + structural invariants; exit 1 on findings
//	nncdisk rewrite objects.pg         # rebuild in place (upgrades legacy files, drops tombstones)
//	nncdisk checkpoint objects.pg      # flush committed state into the page file, truncate the WAL
//	nncdisk wal-dump objects.pg.wal    # pretty-print every WAL record
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"spatialdom/internal/core"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/uncertain"
	"spatialdom/internal/wal"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fsck":
			fsckMain(os.Args[2:])
			return
		case "rewrite":
			rewriteMain(os.Args[2:])
			return
		case "checkpoint":
			checkpointMain(os.Args[2:])
			return
		case "wal-dump":
			walDumpMain(os.Args[2:])
			return
		}
	}
	var (
		n       = flag.Int("n", 2000, "number of objects to generate")
		m       = flag.Int("m", 10, "average instances per object")
		mq      = flag.Int("mq", 8, "query instances")
		seed    = flag.Int64("seed", 1, "generation seed")
		input   = flag.String("input", "", "load objects from CSV instead of generating")
		file    = flag.String("file", "", "page file path (default: a temp file)")
		reuse   = flag.Bool("reuse", false, "reopen an existing page file built by a previous run")
		frames  = flag.Int("frames", 128, "buffer pool frames")
		op      = flag.String("op", "all", "operator: ssd, sssd, psd, fsd, f+sd, all")
		queries = flag.Int("queries", 3, "number of queries to run")
		objCap  = flag.Int("objcache", diskindex.DefaultObjCacheCap, "decoded-object LRU capacity (0 disables)")
		warm    = flag.Bool("warm", false, "keep the object cache warm across queries (default: cold per query)")
	)
	flag.Parse()

	path := *file
	if path == "" {
		f, err := os.CreateTemp("", "spatialdom-*.pg")
		if err != nil {
			fatal(err)
		}
		path = f.Name()
		f.Close()
		os.Remove(path)
		defer os.Remove(path)
	}

	var (
		idx *diskindex.Index
		qs  []*uncertain.Object
	)
	if *reuse {
		pf, err := pager.Open(path)
		if err != nil {
			fatal(err)
		}
		defer pf.Close()
		idx, err = diskindex.Open(pager.NewPool(pf, *frames), 1)
		if err != nil {
			fatal(err)
		}
		// Queries are regenerated from the seed against the index extent.
		ds := datagen.Generate(datagen.Params{N: 10, M: *mq, Seed: *seed, Dim: idx.Dim()})
		qs = ds.Queries(*queries, *mq, 200, *seed+99)
		fmt.Printf("reopened %s: %s\n\n", path, idx)
	} else {
		var objs []*uncertain.Object
		if *input != "" {
			var err error
			objs, err = dataio.ReadFile(*input)
			if err != nil {
				fatal(err)
			}
			qs = []*uncertain.Object{objs[0]}
			objs = objs[1:]
		} else {
			ds := datagen.Generate(datagen.Params{N: *n, M: *m, Seed: *seed})
			objs = ds.Objects
			qs = ds.Queries(*queries, *mq, 200, *seed+99)
		}
		pf, err := pager.Create(path, pager.PageSize)
		if err != nil {
			fatal(err)
		}
		defer pf.Close()
		idx, err = diskindex.Build(pager.NewPool(pf, *frames), objs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("built %s: %s\n\n", path, idx)
	}

	ops := []core.Operator{core.SSD, core.SSSD, core.PSD, core.FSD, core.FPlusSD}
	if *op != "all" {
		o, err := core.ParseOperator(*op)
		if err != nil {
			fatal(err)
		}
		ops = []core.Operator{o}
	}

	idx.SetObjCacheCap(*objCap)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\toperator\tcandidates\tpage accesses\treads\thit rate\tobj cache hits\tevictions\ttime")
	for qi, q := range qs {
		for _, o := range ops {
			if !*warm {
				idx.ResetCache()
			}
			res, err := idx.SearchKCtx(context.Background(), q, o, 1, core.SearchOptions{Filters: core.AllFilters})
			if err != nil {
				fatal(err)
			}
			ids := res.IDs()
			sort.Ints(ids)
			acc := res.IO.Hits + res.IO.Misses
			rate := 0.0
			if acc > 0 {
				rate = float64(res.IO.Hits) / float64(acc) * 100
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%.0f%%\t%d\t%d\t%v\n",
				qi, o, len(res.Candidates), acc, res.IO.Reads, rate,
				res.IO.CacheHits, res.IO.CacheEvictions, res.Elapsed.Round(0))
		}
	}
	tw.Flush()
}

// fsckMain implements `nncdisk fsck <file>`: scan the whole page file,
// verify every checksum, and report per page type. Exits 1 when any page
// fails verification, 0 on a clean (or legacy, checksum-free) file.
func fsckMain(args []string) {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	verbose := fs.Bool("v", false, "list every corrupt page")
	frames := fs.Int("frames", 128, "buffer pool frames for the structural pass")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: nncdisk fsck [-v] <file>"))
	}
	rep, err := pager.Fsck(fs.Arg(0))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s: format v%d, %d pages x %d bytes (%d payload)\n",
		rep.Path, rep.Version, rep.Pages, rep.PageSize, rep.Payload)
	if rep.Legacy {
		fmt.Println("legacy file: no checksums to verify (run `nncdisk rewrite` to upgrade)")
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "page type\tpages\tcorrupt")
	corruptByType := map[pager.PageType]int{}
	for _, c := range rep.Corrupt {
		corruptByType[c.Type]++
	}
	for _, t := range rep.Types() {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", t, rep.ByType[t], corruptByType[t])
	}
	tw.Flush()
	if *verbose {
		for _, c := range rep.Corrupt {
			fmt.Printf("page %d (%s): %v\n", c.ID, c.Type, c.Err)
		}
	}
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "%d corrupt page(s)\n", len(rep.Corrupt))
		os.Exit(1)
	}

	// Page bytes verified; now the structural pass — WAL records, tree
	// reachability, free-list/epoch/tombstone invariants.
	srep, err := diskindex.FsckStruct(fs.Arg(0), *frames)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("structure: epoch %d, %d tree + %d store + %d tombstone pages, %d free, %d live objects, %d tombstones\n",
		srep.Epoch, srep.TreePages, srep.StorePages, srep.TombPages,
		srep.FreePages, srep.LiveObjects, srep.Tombstones)
	if srep.WALRecords > 0 || srep.WALTorn > 0 {
		fmt.Printf("wal: %d records, %d committed transactions pending replay, %d torn bytes\n",
			srep.WALRecords, srep.WALCommitted, srep.WALTorn)
	}
	for _, f := range srep.Findings {
		fmt.Fprintf(os.Stderr, "finding: %s\n", f)
	}
	if !srep.Clean() {
		fmt.Fprintf(os.Stderr, "%d structural finding(s)\n", len(srep.Findings))
		os.Exit(1)
	}
	fmt.Println("clean")
}

// checkpointMain implements `nncdisk checkpoint <file>`: flush every
// committed page into the page file and truncate the WAL, so the page
// file alone carries the index.
func checkpointMain(args []string) {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	frames := fs.Int("frames", 128, "buffer pool frames")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: nncdisk checkpoint [-frames=N] <file>"))
	}
	ix, err := diskindex.OpenFileMutable(fs.Arg(0), &diskindex.MutableOptions{Frames: *frames})
	if err != nil {
		fatal(err)
	}
	if rec := ix.WALRecovery(); rec != nil && rec.CommittedTxs > 0 {
		fmt.Printf("recovered %d committed transaction(s), %d page(s) replayed\n",
			rec.CommittedTxs, rec.PagesApplied)
	}
	if err := ix.Checkpoint(); err != nil {
		ix.Close()
		fatal(err)
	}
	if err := ix.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("checkpointed %s\n", fs.Arg(0))
}

// walDumpMain implements `nncdisk wal-dump <file.wal>`.
func walDumpMain(args []string) {
	fs := flag.NewFlagSet("wal-dump", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: nncdisk wal-dump <file.wal>"))
	}
	if err := wal.DumpFile(fs.Arg(0), 0, os.Stdout); err != nil {
		fatal(err)
	}
}

// rewriteMain implements `nncdisk rewrite <file>`: logically rebuild the
// index into a temp file and atomically rename it over the original —
// upgrading legacy (pre-checksum) files to the current format.
func rewriteMain(args []string) {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	frames := fs.Int("frames", 128, "buffer pool frames for the rebuild")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: nncdisk rewrite [-frames=N] <file>"))
	}
	path := fs.Arg(0)
	if err := diskindex.RewriteFile(path, *frames); err != nil {
		fatal(err)
	}
	fmt.Printf("rewrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
