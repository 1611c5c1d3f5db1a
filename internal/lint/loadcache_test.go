package lint

import (
	"testing"
	"time"
)

// TestLoadCacheTypeChecksOnce is the acceptance gate for the shared
// load/type-check cache: one full lint run — however many LoadModule and
// LoadDirs calls it makes — type-checks each module package at most once.
// Eight checks over a re-type-checked module would put `make lint` and
// the golden tests well past a minute; the cache keeps the whole suite to
// a single source-importer pass.
func TestLoadCacheTypeChecksOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check through the source importer is slow; run without -short")
	}
	l, err := sharedLoader("../..")
	if err != nil {
		t.Fatalf("shared loader: %v", err)
	}
	prog, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	n := l.TypeChecks()
	if n == 0 {
		t.Fatal("first LoadModule type-checked nothing; the counter is broken")
	}

	// The cached path: a repeat load plus the full check suite must not
	// touch the type-checker again, and must finish fast — the wall-time
	// gate is an order of magnitude above anything observed for the
	// AST-only work that remains.
	start := time.Now()
	if _, err := LoadModule("../.."); err != nil {
		t.Fatalf("repeat load module: %v", err)
	}
	Run(prog, Checks())
	if got := l.TypeChecks(); got != n {
		t.Errorf("repeat load + check suite re-type-checked the module: %d -> %d passes", n, got)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cached reload + full check suite took %v; the once-per-run cache should keep this far under 30s", elapsed)
	}
}
