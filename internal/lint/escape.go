package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkScratchEscape enforces the lifetime rule behind PR 3's arena design:
// a scratch container (an internal/slab arena, a core.CheckScratch, or any
// *Scratch/*Arena type) is owned by exactly one search and must die with
// it; anything scanEscapes calls an escape lets it outlive the search that
// owns its memory — the next search would then scribble over live data.
// (A sync.Pool of scratch is fine: the pool itself is not a scratch type,
// and Put/Get hand off ownership.)
func checkScratchEscape(prog *Program, r *Reporter) {
	scanEscapes(prog, r, "scratch-escape", "scratch", "its owning search", isScratchType)
}

// moduleNamed peels pointers and slices off t and returns the named type
// underneath when the module declares it, nil otherwise. Both tracked-type
// predicates are name-driven rules over that type.
func moduleNamed(module string, t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if path := named.Obj().Pkg().Path(); path != module && !strings.HasPrefix(path, module+"/") {
		return nil
	}
	return named
}

// isScratchType reports whether t (possibly behind pointers/slices) is a
// scratch container: declared in internal/slab, or a named type whose name
// contains "Scratch" or ends in "Arena".
func isScratchType(module string, t types.Type) bool {
	named := moduleNamed(module, t)
	if named == nil {
		return false
	}
	name := named.Obj().Name()
	return strings.HasSuffix(named.Obj().Pkg().Path(), "/slab") ||
		strings.Contains(name, "Scratch") || strings.Contains(name, "scratch") ||
		strings.HasSuffix(name, "Arena")
}

// isSnapshotType reports whether t (possibly behind pointers/slices) is a
// module-declared snapshot type.
func isSnapshotType(module string, t types.Type) bool {
	named := moduleNamed(module, t)
	return named != nil && strings.Contains(named.Obj().Name(), "napshot") // snapshot / Snapshot
}

// pkgLevel reports whether v is a package-level variable.
func pkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// freeVar returns the variable id names when a closure captures it: not
// package-level and declared outside lit's extent. nil otherwise.
func freeVar(info *types.Info, lit *ast.FuncLit, id *ast.Ident) *types.Var {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || pkgLevel(v) || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
		return nil
	}
	return v
}

// rhsFor pairs the i-th assignment target with the expression it takes its
// value from: its own right-hand side, or the one call a tuple assignment
// spreads.
func rhsFor(a *ast.AssignStmt, i int) ast.Expr {
	switch len(a.Rhs) {
	case len(a.Lhs):
		return a.Rhs[i]
	case 1:
		return a.Rhs[0]
	}
	return nil
}

// scanEscapes is the one escape scanner: it flags every way a value of a
// tracked type — scratch for scratch-escape, a snapshot for
// snapshot-lifecycle — can outlive the scope that owns it: a package-level
// variable of that type, a channel send, a go-statement argument or
// closure capture, a store to a package-level variable, and a store into a
// field of a struct that is not itself tracked (tracked composing tracked
// is sound). A shrinking reslice of the same field (m.retired =
// m.retired[1:]) introduces no new reference and passes.
func scanEscapes(prog *Program, r *Reporter, check, noun, scope string, tracked func(module string, t types.Type) bool) {
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		is := func(e ast.Expr) bool {
			t := info.TypeOf(e)
			return t != nil && tracked(prog.Module, t)
		}
		report := func(pos token.Pos, format string, args ...any) {
			r.Report(pos, check, fmt.Sprintf(format, args...))
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for _, name := range n.Names {
						if v, ok := info.Defs[name].(*types.Var); ok && name.Name != "_" && pkgLevel(v) && tracked(prog.Module, v.Type()) {
							report(name.Pos(), "package-level %s holds %s type %s and so outlives %s",
								name.Name, noun, v.Type(), scope)
						}
					}
				case *ast.SendStmt:
					if is(n.Value) {
						report(n.Pos(), "%s sent on a channel escapes %s", noun, scope)
					}
				case *ast.GoStmt:
					for _, arg := range n.Call.Args {
						if is(arg) {
							report(arg.Pos(), "%s passed to a go statement escapes %s", noun, scope)
						}
					}
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						ast.Inspect(lit.Body, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								if v := freeVar(info, lit, id); v != nil && tracked(prog.Module, v.Type()) {
									report(id.Pos(), "go-statement closure captures %s %s, which escapes %s", noun, id.Name, scope)
								}
							}
							return true
						})
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						rhs := rhsFor(n, i)
						if rhs == nil || !is(rhs) {
							continue
						}
						switch target := ast.Unparen(lhs).(type) {
						case *ast.Ident:
							if v, ok := info.Uses[target].(*types.Var); ok && pkgLevel(v) {
								report(n.Pos(), "%s stored in package-level %s escapes %s", noun, target.Name, scope)
							}
						case *ast.SelectorExpr:
							if slice, ok := ast.Unparen(rhs).(*ast.SliceExpr); ok &&
								exprString(ast.Unparen(slice.X)) == exprString(target) {
								continue
							}
							if !is(target.X) {
								report(n.Pos(), "%s stored in field %s of non-%s %s outlives %s",
									noun, target.Sel.Name, noun, info.TypeOf(target.X), scope)
							}
						}
					}
				}
				return true
			})
		}
	}
}
