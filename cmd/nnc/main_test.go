package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"spatialdom/internal/dataio"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/geom"
	"spatialdom/internal/uncertain"
)

// nnc runs one command line through the verb table.
func nnc(t *testing.T, args ...string) (stdout string, err error) {
	t.Helper()
	var out, errw bytes.Buffer
	err = run(args, &out, &errw)
	return out.String(), err
}

func mustNnc(t *testing.T, args ...string) string {
	t.Helper()
	out, err := nnc(t, args...)
	if err != nil {
		t.Fatalf("nnc %s: %v", strings.Join(args, " "), err)
	}
	return out
}

var dataset = []string{"-n=300", "-m=6", "-seed=3"}

func with(verb string, extra ...string) []string {
	return append(append([]string{verb}, dataset...), extra...)
}

func TestGenReadsBackToTheGeneratedObjects(t *testing.T) {
	src := dataio.Source{N: 300, M: 6, D: 3, HD: 400, Dist: "anti", Seed: 3}
	want, _, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataio.Read(strings.NewReader(mustNnc(t, with("gen")...)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Objects) {
		t.Fatal("gen output does not read back to the generated objects")
	}
	qs, err := dataio.Read(strings.NewReader(mustNnc(t, with("gen", "-queries=4", "-mq=5")...)))
	if err != nil || len(qs) != 4 {
		t.Fatalf("gen -queries=4: %d objects, %v", len(qs), err)
	}
}

// answers extracts from query's table what must not depend on where the
// index lives — "query operator candidates IDs" per row — and, apart, the
// page-accesses column, which must.
func answers(t *testing.T, out string) (rows, accesses []string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue // not a table row
		}
		rows = append(rows, strings.Join([]string{f[0], f[1], f[3], line[strings.Index(line, "["):]}, " "))
		accesses = append(accesses, f[4])
	}
	return rows, accesses
}

// The same dataset flags give the same candidate IDs from the in-memory
// index and from the page file build wrote, for every operator.
func TestQueryMemoryDiskParity(t *testing.T) {
	pg := filepath.Join(t.TempDir(), "o.pg")
	if out := mustNnc(t, with("build", "-out="+pg)...); !strings.Contains(out, "300 objects") {
		t.Fatalf("build: %s", out)
	}
	for _, k := range []string{"-k=1", "-k=3"} {
		mem := mustNnc(t, with("query", "-queries=3", "-functions=false", k)...)
		disk := mustNnc(t, with("query", "-queries=3", "-functions=false", k, "-disk="+pg, "-frames=16")...)
		a, memIO := answers(t, mem)
		b, diskIO := answers(t, disk)
		if len(a) != 3*5 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: memory and disk disagree\nmemory:\n%s\ndisk:\n%s", k, mem, disk)
		}
		for i := range a {
			if memIO[i] != "0" || diskIO[i] == "0" {
				t.Fatalf("%s: page accesses %s in memory, %s on disk", a[i], memIO[i], diskIO[i])
			}
		}
	}
	// With -functions (the default) the per-function NN table follows.
	if out := mustNnc(t, with("query", "-op=psd")...); !strings.Contains(out, "nearest neighbor per NN function") {
		t.Fatalf("query -functions: %s", out)
	}

	if out := mustNnc(t, "fsck", pg); !strings.HasSuffix(out, "clean\n") {
		t.Fatalf("fsck of a fresh build: %s", out)
	}
	raw, err := os.ReadFile(pg)
	if err != nil {
		t.Fatal(err)
	}
	// A header claiming another format version — 0 was once "no checksums
	// to verify" — is a finding to fsck and a refusal to query.
	raw[12] = 0
	if err := os.WriteFile(pg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := nnc(t, "fsck", "-v", pg); err == nil || errors.Is(err, dataio.ErrUsage) || !strings.Contains(out, "version 0") {
		t.Fatalf("fsck of a header at version 0: %v\n%s", err, out)
	}
	if _, err := nnc(t, with("query", "-disk="+pg)...); err == nil || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("query over a header at version 0: %v", err)
	}
	raw[12] = 1
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(pg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := nnc(t, "fsck", pg); err == nil || errors.Is(err, dataio.ErrUsage) {
		t.Fatalf("fsck after a flipped byte: %v\n%s", err, out)
	}
}

// A page file a mutable session left with transactions only its WAL holds
// is not queried read-only as if they had not happened: query fails (exit 1,
// not a usage error) naming the log, and works again after a checkpoint.
func TestQueryRefusesPendingWAL(t *testing.T) {
	dir := t.TempDir()
	pg, crashed := filepath.Join(dir, "o.pg"), filepath.Join(dir, "crashed.pg")
	mustNnc(t, with("build", "-out="+pg)...)
	ix, err := diskindex.OpenFileMutable(pg, &diskindex.MutableOptions{WALLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(uncertain.MustNew(900001, []geom.Point{{5000, 5000, 5000}}, nil)); err != nil {
		t.Fatal(err)
	}
	// The crash: what is on disk while the session is still open.
	for _, ext := range []string{"", ".wal"} {
		raw, err := os.ReadFile(pg + ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+ext, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	args := with("query", "-queries=1", "-functions=false", "-disk="+crashed)
	if out, err := nnc(t, args...); err == nil || errors.Is(err, dataio.ErrUsage) || !strings.Contains(err.Error(), crashed+".wal") {
		t.Fatalf("query over a pending WAL: err = %v; want a plain failure naming %s.wal\n%s", err, crashed, out)
	}
	mustNnc(t, "checkpoint", crashed)
	if out := mustNnc(t, args...); !strings.Contains(out, "(301 objects)") {
		t.Fatalf("query after the checkpoint: %s", out)
	}
}

func TestShardManifestCoversTheDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	mustNnc(t, with("shard", "-shards=4", "-out="+dir)...)
	js, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(js, &man); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, name := range man.Files {
		objs, err := dataio.ReadFile(filepath.Join(dir, name))
		if err != nil || len(objs) != man.Counts[i] {
			t.Fatalf("%s: %d objects, manifest says %d (%v)", name, len(objs), man.Counts[i], err)
		}
		total += len(objs)
	}
	if man.Shards != 4 || len(man.Files) != 4 || total != 300 || man.Objects != 300 || man.Dim != 3 {
		t.Fatalf("manifest %+v covers %d objects", man, total)
	}
}

func TestFigureAndVerify(t *testing.T) {
	if out := mustNnc(t, "figure", "-figure=11f", "-scale=tiny"); !strings.Contains(out, "SSSD") {
		t.Fatalf("figure: %s", out)
	}
	if out := mustNnc(t, "figure", "-figure=16", "-scale=tiny", "-format=csv"); !strings.HasPrefix(out, "\"# ") && !strings.HasPrefix(out, "# ") {
		t.Fatalf("figure -format=csv: %s", out)
	}
	if testing.Short() {
		return
	}
	if out := mustNnc(t, "verify", "-scale=tiny"); !strings.Contains(out, "PASS") {
		t.Fatalf("verify: %s", out)
	}
}

// Every bad command line is a usage error — exit 2 — and never a panic:
// the generator used to die in makeslice or Intn on the first four.
func TestBadCommandLinesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"frobnicate"}, {"-n=5"},
		{"gen", "-n=-1"}, {"shard", "-m=-2"}, {"build", "-d=-1", "-out=x.pg"}, {"query", "-hd=0"},
		{"gen", "-dist=zipf"}, {"gen", "-n=many"}, {"gen", "-no-such-flag"}, {"gen", "stray"},
		{"gen", "-queries=-3"}, {"gen", "-queries=2", "-mq=0"}, {"query", "-hq=-1"},
		{"query", "-k=0"}, {"query", "-op=xsd"}, {"query", "-queries=0"},
		{"shard", "-shards=0"}, {"build"},
		{"fsck"}, {"fsck", "a.pg", "b.pg"}, {"rewrite"}, {"checkpoint"}, {"wal-dump"},
		{"figure", "-figure=99"}, {"figure", "-scale=galactic"}, {"figure", "-format=bars"}, {"verify", "-scale=galactic"},
	} {
		if out, err := nnc(t, args...); !errors.Is(err, dataio.ErrUsage) || out != "" {
			t.Errorf("nnc %s: err = %v, stdout %q; want a usage error and no output", strings.Join(args, " "), err, out)
		}
	}
	// A file that is not there is a failure, not a usage error.
	for _, args := range [][]string{
		{"gen", "-input=missing.csv"}, {"query", "-n=50", "-disk=missing.pg"}, {"fsck", "missing.pg"}, {"wal-dump", "missing.wal"},
	} {
		if _, err := nnc(t, args...); err == nil || errors.Is(err, dataio.ErrUsage) {
			t.Errorf("nnc %s: err = %v; want a plain failure", strings.Join(args, " "), err)
		}
	}
	if out, err := nnc(t, "query", "-h"); err != nil || out != "" {
		t.Errorf("nnc query -h: %v, %q", err, out)
	}
}
