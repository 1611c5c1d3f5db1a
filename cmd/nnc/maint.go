package main

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/wal"
)

// fsck scans the whole page file, verifies every checksum and reports per
// page type, then checks the WAL and the structural invariants. Any
// finding is an error.
func fsck(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	verbose := fs.Bool("v", false, "list every corrupt page")
	frames := fs.Int("frames", 128, "buffer pool frames for the structural pass")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	rep, err := pager.Fsck(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: format v%d, %d pages x %d bytes (%d payload)\n",
		rep.Path, rep.Version, rep.Pages, rep.PageSize, rep.Payload)
	corruptByType := map[pager.PageType]int{}
	for _, c := range rep.Corrupt {
		corruptByType[c.Type]++
		if *verbose {
			fmt.Fprintf(out, "page %d (%s): %v\n", c.ID, c.Type, c.Err)
		}
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "page type\tpages\tcorrupt")
	for _, t := range rep.Types() {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", t, rep.ByType[t], corruptByType[t])
	}
	tw.Flush()
	if !rep.Clean() {
		return fmt.Errorf("%s: %d corrupt page(s)", rep.Path, len(rep.Corrupt))
	}

	// Page bytes verified; now the structural pass — WAL records, tree
	// reachability, leaf entries against the record heap, free-list/epoch
	// invariants.
	srep, err := diskindex.FsckStruct(fs.Arg(0), *frames)
	if err != nil {
		return err
	}
	dead := "dead records not counted (the record scan did not finish)"
	if srep.StoreScanned {
		dead = fmt.Sprintf("%d dead records", srep.DeadRecords)
	}
	fmt.Fprintf(out, "structure: epoch %d, %d tree + %d store pages, %d free, %d live objects, %s\n",
		srep.Epoch, srep.TreePages, srep.StorePages, srep.FreePages, srep.LiveObjects, dead)
	if srep.WALRecords > 0 || srep.WALTorn > 0 || srep.WALStale > 0 {
		fmt.Fprintf(out, "wal: %d records, %d committed transactions pending replay, %d torn bytes, %d bytes of older generations\n",
			srep.WALRecords, srep.WALCommitted, srep.WALTorn, srep.WALStale)
	}
	for _, f := range srep.Findings {
		fmt.Fprintf(out, "finding: %s\n", f)
	}
	if !srep.Clean() {
		return fmt.Errorf("%s: %d structural finding(s)", rep.Path, len(srep.Findings))
	}
	fmt.Fprintln(out, "clean")
	return nil
}

// rewrite rebuilds the index into a temp file and renames it over the
// original: the compactor, which leaves dead records and leaked pages behind.
func rewrite(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	frames := fs.Int("frames", 128, "buffer pool frames for the rebuild")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	if err := diskindex.RewriteFile(fs.Arg(0), *frames); err != nil {
		return err
	}
	fmt.Fprintf(out, "rewrote %s\n", fs.Arg(0))
	return nil
}

// checkpoint flushes every committed page into the page file and trims
// the WAL to its header, so the page file alone carries the index.
func checkpoint(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	frames := fs.Int("frames", 128, "buffer pool frames")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	ix, err := diskindex.OpenFileMutable(fs.Arg(0), &diskindex.MutableOptions{Frames: *frames})
	if err != nil {
		return err
	}
	if rec := ix.WALRecovery(); rec != nil && rec.CommittedTxs > 0 {
		fmt.Fprintf(out, "recovered %d committed transaction(s), %d page(s) replayed\n",
			rec.CommittedTxs, rec.PagesApplied)
	}
	if err := ix.Close(); err != nil { // Close checkpoints
		return err
	}
	fmt.Fprintf(out, "checkpointed %s\n", fs.Arg(0))
	return nil
}

func walDump(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	return wal.DumpFile(fs.Arg(0), 0, out)
}
