package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkNoReflectSort bans reflection-based sorting and fmt formatting in
// the hot packages. PR 3 replaced every sort.Slice with a typed sort
// precisely because the reflect-based swap costs ~3x and boxes the
// closure; this check is the regression guard. fmt stays legal inside
// String/GoString/Format/Error methods (they exist to format) and in
// functions that return an error (message construction on the failure
// path), but a fmt call feeding a panic in the middle of a numeric kernel
// belongs to strconv.
func checkNoReflectSort(prog *Program, r *Reporter) {
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		if !inScope(pkg.ImportPath, hotPkgs) {
			return
		}
		fmtOK := fmtAllowedIn(pkg, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := calleePathQual(pkg.Info, call)
			switch {
			case path == "sort" && strings.HasPrefix(name, "Slice"):
				r.Report(call.Pos(), "no-reflect-sort",
					fmt.Sprintf("sort.%s sorts through reflection; write a typed sort (see internal/distr/sort.go)", name))
			case path == "fmt" && !fmtOK:
				r.Report(call.Pos(), "no-reflect-sort",
					fmt.Sprintf("fmt.%s in hot package %s; use strconv or move formatting out of the hot tree", name, pkg.Types.Name()))
			case path == "reflect":
				r.Report(call.Pos(), "no-reflect-sort",
					fmt.Sprintf("reflect.%s in hot package %s", name, pkg.Types.Name()))
			}
			return true
		})
	})
}

// hotPkgs are the numeric-kernel packages.
var hotPkgs = []string{"core", "distr", "flow", "geom", "rtree", "slab", "uncertain", "reflectsort"}

// fmtAllowedIn: display methods and error-returning functions may format.
func fmtAllowedIn(pkg *Package, fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "String", "GoString", "Format", "Error":
		return true
	}
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
