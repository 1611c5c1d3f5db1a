package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkHotpathAlloc walks the static call graph from every //nnc:hotpath
// root and flags allocating constructs in each reached module function:
// make/new, escaping or slice/map composite literals, map writes,
// non-reuse append, non-constant string concatenation, escaping capturing
// closures, interface boxing, and calls into fmt/reflect/regexp or
// sort.Slice*. //nnc:coldpath functions are walk boundaries — they
// amortize their own allocations (their declared reason says how) and
// their bodies are not scanned. Interface dispatch is also a boundary:
// dynamic callees cannot be resolved statically, so implementations of
// hot interfaces (geom.Metric, core.Backend) must carry their own
// //nnc:hotpath roots to be covered.
func checkHotpathAlloc(prog *Program, r *Reporter) {
	idx := NewFuncIndex(prog)

	// Malformed coldpath directives are findings regardless of
	// reachability: a boundary without a reason is indistinguishable from
	// a silenced regression.
	for _, fi := range idx.All {
		if fi.Coldpath && fi.ColdWhy == "" {
			r.Report(fi.Decl.Pos(), "hotpath-alloc",
				"//nnc:coldpath requires a reason: \"//nnc:coldpath <why this function may allocate>\"")
		}
	}

	// BFS from the hotpath roots through statically resolvable calls into
	// module internal/ packages.
	type workItem struct {
		fi   *FuncInfo
		root string
	}
	var queue []workItem
	seen := map[*FuncInfo]bool{}
	for _, fi := range idx.All {
		if fi.Hotpath {
			queue = append(queue, workItem{fi, fi.Name()})
			seen[fi] = true
		}
	}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		callees := scanHotFunc(prog, item.fi, item.root, r)
		for _, callee := range callees {
			cfi := idx.ByObj[callee]
			if cfi == nil || seen[cfi] || cfi.Coldpath {
				continue
			}
			if !strings.Contains(cfi.Pkg.ImportPath, "/internal/") {
				continue
			}
			seen[cfi] = true
			queue = append(queue, workItem{cfi, item.root})
		}
	}
}

// allocDenylist maps called-package paths to a short reason; any call into
// these packages from a hot function is flagged.
var allocDenylist = map[string]string{
	"fmt":     "formats through reflection and allocates",
	"reflect": "reflection is never allocation-free",
	"regexp":  "regexp matching allocates",
}

// hotScanner scans one function body for allocating constructs.
type hotScanner struct {
	prog    *Program
	pkg     *Package
	fi      *FuncInfo
	root    string
	r       *Reporter
	callees []*types.Func

	// funcLits the body walk decided do not escape their statement:
	// immediately invoked, deferred, go'd, or passed directly as a call
	// argument (the callee runs them within the call).
	exemptLits map[*ast.FuncLit]bool
	// sigs is the result-signature stack for return-statement boxing.
	sigs []*types.Signature
}

// scanHotFunc reports allocating constructs in fi's body and returns the
// statically resolved module callees for the BFS.
func scanHotFunc(prog *Program, fi *FuncInfo, root string, r *Reporter) []*types.Func {
	s := &hotScanner{
		prog:       prog,
		pkg:        fi.Pkg,
		fi:         fi,
		root:       root,
		r:          r,
		exemptLits: map[*ast.FuncLit]bool{},
	}
	s.markExemptLits(fi.Decl.Body)
	sig, _ := fi.Pkg.Info.Defs[fi.Decl.Name].Type().(*types.Signature)
	if sig != nil {
		s.sigs = append(s.sigs, sig)
	}
	s.walk(fi.Decl.Body, false)
	return s.callees
}

func (s *hotScanner) report(pos token.Pos, msg string) {
	where := s.fi.Name()
	if where == s.root {
		s.r.Report(pos, "hotpath-alloc", fmt.Sprintf("%s (in //nnc:hotpath %s)", msg, where))
		return
	}
	s.r.Report(pos, "hotpath-alloc",
		fmt.Sprintf("%s (in %s, reached from //nnc:hotpath %s)", msg, where, s.root))
}

// markExemptLits pre-computes which function literals never outlive their
// statement (immediately invoked, deferred, go'd, or passed directly as a
// call argument) or are bound to a local variable that is only ever
// called — the compiler keeps those on the stack, so they don't allocate.
func (s *hotScanner) markExemptLits(body ast.Node) {
	info := s.pkg.Info
	// First pass: every ident that appears as the operator of a call.
	calledIdents := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				calledIdents[id] = true
			}
		}
		return true
	})
	// onlyCalled reports whether every use of v in the body is a direct
	// call — then the closure value bound to v never escapes.
	onlyCalled := func(v *types.Var) bool {
		ok := true
		ast.Inspect(body, func(n ast.Node) bool {
			if !ok {
				return false
			}
			if id, okID := n.(*ast.Ident); okID && info.Uses[id] == v && !calledIdents[id] {
				ok = false
			}
			return true
		})
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				s.exemptLits[lit] = true // immediately invoked
			}
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					s.exemptLits[lit] = true // runs within the call
				}
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				s.exemptLits[lit] = true
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				s.exemptLits[lit] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			lit, okLit := ast.Unparen(n.Rhs[0]).(*ast.FuncLit)
			id, okID := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			if !okLit || !okID {
				return true
			}
			var v *types.Var
			if n.Tok == token.DEFINE {
				v, _ = info.Defs[id].(*types.Var)
			} else {
				v, _ = info.Uses[id].(*types.Var)
			}
			if v != nil && v.Pkg() != nil && !pkgLevel(v) && onlyCalled(v) {
				s.exemptLits[lit] = true // f := func(...){...} used only as f(...)
			}
		}
		return true
	})
}

// walk recursively scans n; inPanic marks subtrees that only execute while
// building a panic value, which are exempt from allocation rules.
func (s *hotScanner) walk(n ast.Node, inPanic bool) {
	if n == nil {
		return
	}
	info := s.pkg.Info
	switch n := n.(type) {
	case *ast.CallExpr:
		s.scanCall(n, inPanic)
		return
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				if !inPanic {
					s.report(n.Pos(), "address-taken composite literal escapes to the heap")
				}
				for _, elt := range lit.Elts {
					s.walk(elt, inPanic)
				}
				return
			}
		}
	case *ast.CompositeLit:
		if !inPanic {
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					s.report(n.Pos(), "slice literal allocates")
				case *types.Map:
					s.report(n.Pos(), "map literal allocates")
				}
			}
		}
	case *ast.FuncLit:
		if !inPanic && !s.exemptLits[n] && s.captures(n) {
			s.report(n.Pos(), "capturing closure outlives its statement and allocates")
		}
		sig, _ := info.Types[n].Type.(*types.Signature)
		if sig != nil {
			s.sigs = append(s.sigs, sig)
			s.walk(n.Body, inPanic)
			s.sigs = s.sigs[:len(s.sigs)-1]
			return
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && !inPanic {
			if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
				s.report(n.Pos(), "string concatenation allocates")
			}
		}
	case *ast.AssignStmt:
		s.scanAssign(n, inPanic)
		return
	case *ast.IncDecStmt:
		if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) && !inPanic {
			s.report(n.Pos(), "map update allocates on growth; hot state must live in arenas or dense slices")
		}
	case *ast.ValueSpec:
		for i, v := range n.Values {
			if i < len(n.Names) {
				s.checkBoxing(v, info.TypeOf(n.Names[i]), inPanic)
			}
			s.walk(v, inPanic)
		}
		return
	case *ast.ReturnStmt:
		if len(s.sigs) > 0 {
			sig := s.sigs[len(s.sigs)-1]
			if sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					s.checkBoxing(res, sig.Results().At(i).Type(), inPanic)
				}
			}
		}
	case *ast.SendStmt:
		if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
			s.checkBoxing(n.Value, ch.Elem(), inPanic)
		}
	}

	for _, child := range childNodes(n) {
		s.walk(child, inPanic)
	}
}

// scanCall handles builtin allocators, the append-reuse idiom's non-idiom
// uses, the package denylist, boxing at the call boundary, and callee
// collection for the BFS.
func (s *hotScanner) scanCall(call *ast.CallExpr, inPanic bool) {
	info := s.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				for _, arg := range call.Args {
					s.walk(arg, true)
				}
				return
			case "make":
				if !inPanic {
					s.report(call.Pos(), "make allocates; use a slab arena or per-search scratch")
				}
			case "new":
				if !inPanic {
					s.report(call.Pos(), "new allocates; use a slab arena or per-search scratch")
				}
			case "append":
				// Bare append outside the x = append(x, ...) assignment
				// idiom: the result is discarded into a fresh backing
				// array. scanAssign whitelists the idiom before we get
				// here, so any append reaching this point is suspect.
				if !inPanic {
					s.report(call.Pos(), "append outside the x = append(x, ...) reuse idiom may reallocate")
				}
			}
		}
	}

	if path, name := calleePathQual(info, call); path != "" {
		if why, bad := allocDenylist[path]; bad && !inPanic {
			s.report(call.Pos(), fmt.Sprintf("call to %s.%s: %s", path, name, why))
		}
		if path == "sort" && strings.HasPrefix(name, "Slice") && !inPanic {
			s.report(call.Pos(), fmt.Sprintf("sort.%s uses reflection and boxes the swap closure; use a typed sort", name))
		}
	}

	// Boxing at the call boundary: concrete non-pointer-shaped values
	// passed where the callee takes an interface.
	if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok && call.Ellipsis == token.NoPos {
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			case i < sig.Params().Len():
				pt = sig.Params().At(i).Type()
			}
			if pt != nil {
				s.checkBoxing(arg, pt, inPanic)
			}
		}
	}

	if callee := CalleeOf(info, call); callee != nil {
		s.callees = append(s.callees, callee)
	}

	s.walk(call.Fun, inPanic)
	for _, arg := range call.Args {
		s.walk(arg, inPanic)
	}
}

// scanAssign handles map writes, string +=, the append-reuse idiom, and
// boxing on interface-typed targets.
func (s *hotScanner) scanAssign(a *ast.AssignStmt, inPanic bool) {
	info := s.pkg.Info
	for _, lhs := range a.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) && !inPanic {
			s.report(lhs.Pos(), "map write allocates on growth; hot state must live in arenas or dense slices")
		}
	}
	if a.Tok == token.ADD_ASSIGN && len(a.Lhs) == 1 && !inPanic {
		if t := info.TypeOf(a.Lhs[0]); t != nil && isString(t) {
			s.report(a.Pos(), "string concatenation allocates")
		}
	}
	// x = append(x, ...) (optionally through a reslice of x, as in
	// g.adj = append(g.adj[:n], ...)) reuses capacity and is the one
	// sanctioned append form; walk only the appended values.
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 && a.Tok == token.ASSIGN {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok && len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					base := ast.Unparen(call.Args[0])
					for {
						if sl, ok := base.(*ast.SliceExpr); ok {
							base = ast.Unparen(sl.X)
							continue
						}
						break
					}
					if exprString(a.Lhs[0]) == exprString(base) {
						for _, arg := range call.Args[1:] {
							s.walk(arg, inPanic)
						}
						return
					}
				}
			}
		}
	}
	for i, rhs := range a.Rhs {
		if len(a.Lhs) == len(a.Rhs) {
			s.checkBoxing(rhs, info.TypeOf(a.Lhs[i]), inPanic)
		}
		s.walk(rhs, inPanic)
	}
	for _, lhs := range a.Lhs {
		s.walk(lhs, inPanic)
	}
}

// checkBoxing flags expr when assigning it to target implies boxing a
// concrete non-pointer-shaped value into an interface.
func (s *hotScanner) checkBoxing(expr ast.Expr, target types.Type, inPanic bool) {
	if inPanic || target == nil || !types.IsInterface(target) {
		return
	}
	info := s.pkg.Info
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if at == types.Typ[types.UntypedNil] || types.IsInterface(at) {
		return
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored directly in the interface word
	}
	s.report(expr.Pos(), fmt.Sprintf("value of type %s boxes into interface %s and allocates", at, target))
}

// captures reports whether lit references a variable declared outside its
// own body (a capture forces the closure onto the heap).
func (s *hotScanner) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && freeVar(s.pkg.Info, lit, id) != nil {
			found = true
		}
		return !found
	})
	return found
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
