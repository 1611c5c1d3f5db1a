package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// corpusCases maps each testdata corpus directory to the single check its
// seeded violations target. Each corpus is loaded and linted in isolation
// so a regression in one check cannot hide behind another's findings.
var corpusCases = []struct {
	dir   string
	check string
}{
	{"hotpath", "hotpath-alloc"},
	{"scratchescape", "scratch-escape"},
	{"lockbalance", "lock-balance"},
	{"ctxflow", "ctx-flow"},
	{"snapshotlifecycle", "snapshot-lifecycle"},
	{"goroutinelifecycle", "goroutine-lifecycle"},
	// The scatter-gather corpora: HTTP shard RPCs as ctx-carried I/O, and
	// fan-out/hedge/probe goroutine shapes.
	{"clusterctx", "ctx-flow"},
	{"clusterfanout", "goroutine-lifecycle"},
	{"errtaxonomy", "error-taxonomy"},
	{"atomicpublish", "atomic-publish"},
	// multifile re-runs hotpath-alloc over a package whose root,
	// violation and suppression live in different files, with a
	// build-tag-excluded file the loader must skip.
	{"multifile", "hotpath-alloc"},
}

// wantFinding is one parsed //wantlint expectation. line == 0 means the
// finding may land anywhere in the file (the wantlint-file form, for lines
// that cannot carry a trailing comment — e.g. findings raised on a
// directive comment itself).
type wantFinding struct {
	file   string // basename
	line   int
	check  string
	substr string
}

// parseWantLine recognizes the two golden grammars:
//
//	code //wantlint <check>: <substr>      finding expected on this line
//	// wantlint-file <check>: <substr>     finding expected anywhere in file
func parseWantLine(file string, line int, text string) (wantFinding, bool) {
	if _, rest, ok := strings.Cut(text, "wantlint-file "); ok {
		if check, substr, ok := cutCheck(rest); ok {
			return wantFinding{file: file, check: check, substr: substr}, true
		}
		return wantFinding{}, false
	}
	if _, rest, ok := strings.Cut(text, "//wantlint "); ok {
		if check, substr, ok := cutCheck(rest); ok {
			return wantFinding{file: file, line: line, check: check, substr: substr}, true
		}
	}
	return wantFinding{}, false
}

func cutCheck(rest string) (check, substr string, ok bool) {
	check, substr, found := strings.Cut(rest, ":")
	check = strings.TrimSpace(check)
	substr = strings.TrimSpace(substr)
	if !found || check == "" || substr == "" || strings.ContainsAny(check, " \t") {
		return "", "", false
	}
	return check, substr, true
}

func parseWants(t *testing.T, dir string) []wantFinding {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus %s: %v", dir, err)
	}
	var wants []wantFinding
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			if w, ok := parseWantLine(e.Name(), i+1, lineText); ok {
				wants = append(wants, w)
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no //wantlint annotations", dir)
	}
	return wants
}

func TestGoldenCorpora(t *testing.T) {
	for _, tc := range corpusCases {
		t.Run(tc.dir, func(t *testing.T) {
			prog, err := LoadDirs("../..", []string{"internal/lint/testdata/" + tc.dir})
			if err != nil {
				t.Fatalf("load corpus: %v", err)
			}
			only := slices.DeleteFunc(Checks(), func(c Check) bool { return c.Name != tc.check })
			matchFindings(t, parseWants(t, filepath.Join("testdata", tc.dir)), Run(prog, only))
		})
	}
}

// matchFindings pairs expectations with diagnostics one-to-one:
// line-anchored wants claim first, wantlint-file wants sweep up the rest,
// and anything left over on either side fails the test.
func matchFindings(t *testing.T, wants []wantFinding, diags []Diagnostic) {
	t.Helper()
	claimed := make([]bool, len(diags))
	match := func(w wantFinding, exactLine bool) bool {
		for i, d := range diags {
			if claimed[i] || d.Check != w.check || filepath.Base(d.Pos.Filename) != w.file ||
				!strings.Contains(d.Msg, w.substr) {
				continue
			}
			if exactLine && d.Pos.Line != w.line {
				continue
			}
			claimed[i] = true
			return true
		}
		return false
	}
	var missing []wantFinding
	for _, w := range wants {
		if w.line != 0 && !match(w, true) {
			missing = append(missing, w)
		}
	}
	for _, w := range wants {
		if w.line == 0 && !match(w, false) {
			missing = append(missing, w)
		}
	}
	for _, w := range missing {
		t.Errorf("missing finding: %s:%d [%s] with message containing %q", w.file, w.line, w.check, w.substr)
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("unexpected finding: %s", d.String())
		}
	}
}

// TestRepoCleanUnderLint is the acceptance gate behind `make lint`: the
// whole module lints clean, so any finding in CI comes from the change
// under review, and every surviving //nnc:allow suppresses something real.
func TestRepoCleanUnderLint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check through the source importer is slow; run without -short")
	}
	prog, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range Run(prog, Checks()) {
		t.Errorf("repo not lint-clean: %s", d.String())
	}
}
