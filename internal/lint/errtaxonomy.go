package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// checkErrorTaxonomy keeps the fault taxonomy routable. The quarantine,
// retry and degradation machinery of internal/faults dispatches on
// errors.Is/errors.As, which only works when every layer that touches an
// underlying error wraps it instead of flattening it to text:
//
//  1. wrap — in the storage and server packages, fmt.Errorf must carry
//     every error-typed argument through a %w verb; formatting an error
//     with %v or %s strips its identity and breaks quarantine routing
//     downstream. (Multiple %w verbs are fine — Go 1.20+.)
//  2. sentinel — in the storage packages, errors.New inside a function
//     body mints a fresh, unroutable error value on every call; declare a
//     package-level sentinel (so callers can errors.Is against it) or
//     wrap an existing faults type with %w instead. The faults package
//     itself is exempt — it is the taxonomy.
//
// internal/lint is in both scopes: the analyzer obeys its own rules.
func checkErrorTaxonomy(prog *Program, r *Reporter) {
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		wrapScope := inScope(pkg.ImportPath, errWrapScope)
		sentinelScope := inScope(pkg.ImportPath, errSentinelScope)
		if !wrapScope && !sentinelScope {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := calleePathQual(pkg.Info, call)
			switch {
			case wrapScope && path == "fmt" && name == "Errorf":
				reportUnwrappedErrorf(pkg.Info, call, r)
			case sentinelScope && path == "errors" && name == "New":
				r.Report(call.Pos(), "error-taxonomy",
					"errors.New inside a function mints an unroutable one-off error; declare a package-level sentinel or wrap a faults type with %w so errors.Is keeps working")
			}
			return true
		})
	})
}

// errSentinelScope is the storage data plane, where every error must be a
// sentinel or a wrapped faults type. errWrapScope is everywhere an
// underlying error might be re-wrapped on its way to the quarantine
// router: the same plus the server packages — whose protocol-level errors
// (bad request text) are display-only, so they may mint them — and faults
// itself, which constructs the taxonomy.
var (
	errSentinelScope = []string{"wal", "pager", "diskindex", "diskstore", "diskrtree", "faultfile", "lint", "errtaxonomy"}
	errWrapScope     = append([]string{"faults", "server", "front"}, errSentinelScope...)
)

// reportUnwrappedErrorf flags a fmt.Errorf whose error-typed arguments
// outnumber its %w verbs. A non-literal format string is skipped — the
// verbs cannot be counted, and the repo never builds error formats
// dynamically.
func reportUnwrappedErrorf(info *types.Info, call *ast.CallExpr, r *Reporter) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	wCount := strings.Count(strings.ReplaceAll(format, "%%", ""), "%w")
	errArgs := 0
	for _, arg := range call.Args[1:] {
		t := info.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, isBasic := t.Underlying().(*types.Basic); isBasic {
			continue // untyped nil and friends
		}
		if types.Implements(t, errorInterface()) {
			errArgs++
		}
	}
	if errArgs > wCount {
		r.Report(call.Pos(), "error-taxonomy",
			"fmt.Errorf formats an error value with %v/%s, hiding it from errors.Is/errors.As; wrap it with %w so quarantine routing sees through the message")
	}
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}
