// Command nnc is the offline tool: every verb reads its dataset through
// the one dataio.Source (the paper's Table 2 parameters -n -m -d -hd -dist
// -seed, or -input CSV), so the same flags mean the same objects and the
// same query workload in every verb — and in nncserver, which registers
// the same Source.
//
//	nnc gen -n=1000 -m=40 > objects.csv            # the dataset as CSV
//	nnc gen -n=1000 -queries=10 -mq=30 > work.csv  # its query workload
//	nnc shard -n=20000 -shards=4 -out=shards/      # STR split + manifest.json
//	nnc build -n=5000 -out=objects.pg              # disk index page file
//	nnc query -n=5000 -op=all -k=3                 # in-memory index
//	nnc query -n=5000 -disk=objects.pg -queries=4  # same queries, page file
//	nnc fsck objects.pg                            # checksums + WAL + structure; exit 1 on findings
//	nnc rewrite objects.pg                         # rebuild in place, dropping dead records
//	nnc checkpoint objects.pg                      # flush the WAL into the page file
//	nnc wal-dump objects.pg.wal                    # print every WAL record, images with their logged length
//	nnc figure -figure=10 -scale=small             # a figure of the paper's evaluation
//	nnc verify -scale=small                        # Appendix C.2 shape checks
//
// `nnc <verb> -h` lists the verb's flags. Exit status: 0, 1 on a failure
// or a finding, 2 on a bad command line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spatialdom"
	"spatialdom/internal/cluster"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/harness"
	"spatialdom/internal/uncertain"
)

// verbs is the whole tool. Each verb parses args with its own flag set,
// writes its product to out and its progress to errw.
var verbs = []struct {
	name string
	run  func(fs *flag.FlagSet, args []string, out, errw io.Writer) error
}{
	{"gen", gen}, {"shard", shard}, {"build", build}, {"query", query},
	{"fsck", fsck}, {"rewrite", rewrite}, {"checkpoint", checkpoint}, {"wal-dump", walDump},
	{"figure", figure}, {"verify", verify},
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "nnc:", err)
	if errors.Is(err, dataio.ErrUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string, out, errw io.Writer) error {
	var names []string
	for _, v := range verbs {
		if len(args) > 0 && args[0] == v.name {
			fs := flag.NewFlagSet("nnc "+v.name, flag.ContinueOnError)
			fs.SetOutput(errw)
			if err := v.run(fs, args[1:], out, errw); !errors.Is(err, flag.ErrHelp) {
				return err
			}
			return nil
		}
		names = append(names, v.name)
	}
	return usagef("want a verb: nnc %s [flags]", strings.Join(names, "|"))
}

func usagef(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{dataio.ErrUsage}, a...)...)
}

// parse parses a verb's command line; files is how many positional
// arguments the verb takes. The flag package has already printed what was
// wrong and the verb's flags; -h comes back as flag.ErrHelp, which run
// turns into success.
func parse(fs *flag.FlagSet, args []string, files int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usagef("%s", fs.Name())
	}
	if fs.NArg() != files {
		return usagef("%s takes %d file argument(s), got %d", fs.Name(), files, fs.NArg())
	}
	return nil
}

// workload is the query side of Table 2: -queries objects of -mq
// instances and edge -hq, centred on randomly chosen dataset centres.
type workload struct {
	count, mq int
	hq        float64
}

func (w *workload) flags(fs *flag.FlagSet, count int, countUsage string) {
	fs.IntVar(&w.count, "queries", count, countUsage)
	fs.IntVar(&w.mq, "mq", 8, "instances per query object")
	fs.Float64Var(&w.hq, "hq", 200, "query MBB edge length")
}

// draw is the one place a tool's queries come from, so that `gen
// -queries`, `query` and `query -disk` with the same flags ask the same
// questions.
func (w *workload) draw(src *dataio.Source, ds *datagen.Dataset) ([]*uncertain.Object, error) {
	if w.count < 1 || w.mq < 1 || !(w.hq > 0) {
		return nil, usagef("-queries=%d and -mq=%d must be at least 1 and -hq=%g positive", w.count, w.mq, w.hq)
	}
	return ds.Queries(w.count, w.mq, w.hq, src.Seed+99), nil
}

func gen(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	var src dataio.Source
	var w workload
	src.Flags(fs)
	w.flags(fs, 0, "emit a query workload of this size instead of the objects")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	ds, _, err := src.Load()
	if err != nil {
		return err
	}
	objs := ds.Objects
	if w.count != 0 {
		if objs, err = w.draw(&src, ds); err != nil {
			return err
		}
	}
	return dataio.Write(out, objs)
}

// manifest is the sidecar shard writes next to the shard files; a
// deployment is checked against the split that produced it.
type manifest struct {
	Shards  int      `json:"shards"`
	Objects int      `json:"objects"`
	Dim     int      `json:"dim"`
	Source  string   `json:"source"`
	Files   []string `json:"files"`
	Counts  []int    `json:"counts"`
}

// shard splits the dataset in the STR order the R-tree bulk loader uses:
// spatial neighbours land in the same shard, so a query's expansion
// sphere meets few shards and per-shard k-skybands stay small.
func shard(fs *flag.FlagSet, args []string, _, errw io.Writer) error {
	var src dataio.Source
	src.Flags(fs)
	shards := fs.Int("shards", 4, "number of shards")
	dir := fs.String("out", "shards", "output directory")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *shards < 1 {
		return usagef("-shards=%d must be at least 1", *shards)
	}
	ds, label, err := src.Load()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	parts := cluster.Partition(ds.Objects, *shards)
	man := manifest{Shards: len(parts), Objects: len(ds.Objects), Dim: ds.Objects[0].Dim(), Source: label}
	for si, part := range parts {
		name := fmt.Sprintf("shard-%03d.csv", si)
		if err := dataio.WriteFile(filepath.Join(*dir, name), part); err != nil {
			return err
		}
		man.Files = append(man.Files, name)
		man.Counts = append(man.Counts, len(part))
		fmt.Fprintf(errw, "%s: %d objects\n", name, len(part))
	}
	js, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*dir, "manifest.json"), append(js, '\n'), 0o644)
}

func build(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	var src dataio.Source
	src.Flags(fs)
	path := fs.String("out", "", "page file to create (required)")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *path == "" {
		return usagef("build needs -out=<page file>")
	}
	ds, label, err := src.Load()
	if err != nil {
		return err
	}
	// A bulk load writes each page once; the pool only has to hold the
	// pages pinned at one time.
	idx, err := spatialdom.BuildDiskIndex(*path, ds.Objects, 128)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built %s from %s: %d objects, dim %d\n", *path, label, idx.Len(), idx.Dim())
	return idx.Close()
}

// harnessFlags are what figure and verify share: the workload scale and
// the harness's own seed (the figures sweep the dataset parameters
// themselves, so they take no Source).
func harnessFlags(fs *flag.FlagSet) (scale *string, seed *int64) {
	return fs.String("scale", "small", "workload scale: tiny, small, medium, paper"),
		fs.Int64("seed", 20150531, "deterministic generation seed")
}

func figure(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	name := fs.String("figure", "10", "figure to reproduce ("+strings.Join(harness.Figures(), ", ")+") or 'all'")
	format := fs.String("format", "text", "output format: text or csv")
	scale, seed := harnessFlags(fs)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	sc, err := harness.ParseScale(*scale)
	if err != nil {
		return usagef("%v", err)
	}
	if *format != "text" && *format != "csv" {
		return usagef("unknown -format %q", *format)
	}
	figures := []string{*name}
	if *name == "all" {
		figures = harness.Figures()
	}
	for _, fig := range figures {
		tables, err := harness.FigureTables(fig, sc, *seed)
		if err != nil {
			return usagef("%v", err)
		}
		if *format == "text" {
			fmt.Fprintf(out, "=== Figure %s (scale=%s, seed=%d) ===\n", fig, *scale, *seed)
		}
		for i := range tables {
			if *format == "csv" {
				err = tables[i].WriteCSV(out)
			} else if err = tables[i].WriteText(out); err == nil {
				_, err = fmt.Fprintln(out)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func verify(fs *flag.FlagSet, args []string, out, _ io.Writer) error {
	scale, seed := harnessFlags(fs)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	sc, err := harness.ParseScale(*scale)
	if err != nil {
		return usagef("%v", err)
	}
	return harness.VerifyShapes(sc, *seed, out)
}
