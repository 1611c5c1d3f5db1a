package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked module package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File // parse order = sorted file names
	FileNames  []string
	Types      *types.Package
	Info       *types.Info
}

// Program is a loaded module: the non-test files of every package,
// type-checked. No check reads _test.go files, so the loader does not.
type Program struct {
	Fset    *token.FileSet
	Module  string // module path from go.mod
	RootDir string
	Pkgs    []*Package // sorted by import path
	ByPath  map[string]*Package
}

// Loader loads and type-checks module packages with the standard library
// resolved through the source importer (importer.ForCompiler "source"), so
// the tool needs nothing beyond GOROOT sources and the module tree itself.
type Loader struct {
	fset       *token.FileSet
	module     string
	rootDir    string
	std        types.ImporterFrom
	pkgs       map[string]*Package
	loading    map[string]bool
	mu         sync.Mutex // serializes loads through the shared cache
	typeChecks int        // module packages actually type-checked (cache misses)
}

// loaderCache memoizes Loaders by absolute module root, so every
// LoadModule/LoadDirs call in one process shares a single FileSet and
// type-checked package set. One full lint run — the golden corpora plus
// the repo-clean gate plus nnclint itself — type-checks each module
// package at most once; the load-cache test asserts exactly that.
var loaderCache = struct {
	sync.Mutex
	byRoot map[string]*Loader
}{byRoot: map[string]*Loader{}}

// sharedLoader returns the process-wide Loader for rootDir, creating it on
// first use. The cache key is the resolved absolute path, so "../.." and
// "." reach the same loader when they name the same module; the loader
// keeps the caller's original spelling for position rendering.
func sharedLoader(rootDir string) (*Loader, error) {
	abs, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	loaderCache.Lock()
	defer loaderCache.Unlock()
	if l, ok := loaderCache.byRoot[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(rootDir)
	if err != nil {
		return nil, err
	}
	loaderCache.byRoot[abs] = l
	return l, nil
}

// TypeChecks reports how many package type-check passes this loader has
// run so far. Repeat loads through the shared cache must not move it.
func (l *Loader) TypeChecks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.typeChecks
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod.
func NewLoader(rootDir string) (*Loader, error) {
	modFile := filepath.Join(rootDir, "go.mod")
	data, err := os.ReadFile(modFile)
	if err != nil {
		return nil, fmt.Errorf("lint: cannot read %s: %w", modFile, err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s", modFile)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		fset:    fset,
		module:  module,
		rootDir: rootDir,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Import resolves an import path: module-local packages load from the tree,
// everything else falls through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.rootDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.rootDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// goFilesIn lists the buildable non-test files of dir, honoring build
// constraints for the current platform.
func (l *Loader) goFilesIn(dir string) (src []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if match, err := ctx.MatchFile(dir, name); err != nil || !match {
			continue
		}
		src = append(src, name)
	}
	sort.Strings(src)
	return src, nil
}

// LoadDir parses and type-checks the non-test files of one directory as the
// package with the given import path, memoized.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	src, err := l.goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(src) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	pkg := &Package{ImportPath: importPath, Dir: dir}
	for _, name := range src {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.FileNames = append(pkg.FileNames, full)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := types.Config{Importer: l}
	l.typeChecks++
	tpkg, err := cfg.Check(importPath, l.fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// skipDirs are directory names never descended into during module walks.
var skipDirs = map[string]bool{
	"testdata": true,
	"vendor":   true,
	".git":     true,
	".github":  true,
}

// moduleDirs returns every directory under root holding buildable Go files.
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.rootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != l.rootDir && (skipDirs[base] || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		src, err := l.goFilesIn(path)
		if err != nil {
			return err
		}
		if len(src) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.rootDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// load builds a Program from the given directories through the
// process-wide loader cache. A nil dirs means every directory of the
// module that holds buildable non-test files.
func load(rootDir string, dirs []string) (*Program, error) {
	l, err := sharedLoader(rootDir)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if dirs == nil {
		if dirs, err = l.moduleDirs(); err != nil {
			return nil, err
		}
	}
	prog := &Program{Fset: l.fset, Module: l.module, RootDir: l.rootDir, ByPath: map[string]*Package{}}
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if prog.ByPath[path] == nil {
			prog.ByPath[path] = pkg
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
	}
	return prog, nil
}

// LoadModule loads every package in the module. A second LoadModule for
// the same root reuses every previously type-checked package.
func LoadModule(rootDir string) (*Program, error) {
	return load(rootDir, nil)
}

// LoadDirs loads only the given directories (plus their module
// dependencies) — the entry point golden tests use to lint one corpus
// directory at a time. Relative directories are taken from rootDir.
func LoadDirs(rootDir string, dirs []string) (*Program, error) {
	abs := make([]string, len(dirs))
	for i, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(rootDir, dir)
		}
		abs[i] = dir
	}
	return load(rootDir, abs)
}
