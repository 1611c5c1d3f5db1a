package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncInfo describes one function or method declaration in the module.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func // nil only if the declaration failed to resolve

	Hotpath  bool   // declared //nnc:hotpath
	Coldpath bool   // declared //nnc:coldpath <reason>
	ColdWhy  string // the coldpath reason (empty = malformed)
}

// Name returns a readable receiver-qualified name for diagnostics.
func (fi *FuncInfo) Name() string {
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 {
		t := fi.Decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if idx, ok := t.(*ast.IndexListExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fi.Decl.Name.Name
		}
	}
	return fi.Decl.Name.Name
}

// FuncIndex maps declared function objects to their declarations, with the
// //nnc:hotpath and //nnc:coldpath directives already parsed.
type FuncIndex struct {
	ByObj map[*types.Func]*FuncInfo
	All   []*FuncInfo
}

// directiveOn scans the doc comment (and any comment group ending on the
// line above the declaration) for a //nnc: directive with the given prefix,
// returning the remainder text and whether it was present.
func directiveOn(decl *ast.FuncDecl, directive string) (rest string, ok bool) {
	if decl.Doc == nil {
		return "", false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive {
			return "", true
		}
		if r, found := strings.CutPrefix(text, directive+" "); found {
			return strings.TrimSpace(r), true
		}
	}
	return "", false
}

// NewFuncIndex indexes every function declaration with a body in the
// program's type-checked packages.
func NewFuncIndex(prog *Program) *FuncIndex {
	idx := &FuncIndex{ByObj: map[*types.Func]*FuncInfo{}}
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		fi := &FuncInfo{Pkg: pkg, Decl: fd}
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			fi.Obj = obj
			idx.ByObj[obj] = fi
		}
		_, fi.Hotpath = directiveOn(fd, hotpathDirective)
		fi.ColdWhy, fi.Coldpath = directiveOn(fd, coldpathDirective)
		idx.All = append(idx.All, fi)
	})
	return idx
}

// calleeFunc resolves the function object a call names — a plain or
// package-qualified function, a method (interface methods included), or a
// generic instantiation — and, for a method call, its selection.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, *types.Selection) {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) { // generic instantiation F[T](...)
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn, nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn, sel
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func) // pkg.Fn
		return fn, nil
	}
	return nil, nil
}

// CalleeOf statically resolves the callee of a call expression to its
// declared *types.Func, if the target is a concrete function or method
// (not an interface method, function value, or builtin). Generic
// instantiations resolve to their origin declaration. Interface dispatch
// cannot be resolved statically; callers that care (hotpath-alloc) treat
// it as a walk boundary.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, sel := calleeFunc(info, call)
	if fn == nil || (sel != nil && types.IsInterface(sel.Recv())) {
		return nil
	}
	return fn.Origin()
}

// calleePathQual returns the import path and name of a called function for
// denylist matching (e.g. "fmt", "Sprintf"), or "" if unresolvable. Works
// for any call target with a types.Func object, including stdlib and
// interface methods.
func calleePathQual(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	fn, _ := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}
