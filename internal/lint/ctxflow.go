package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkCtxFlow enforces cancellation plumbing in the query-serving
// packages (core, diskindex, server):
//
//  1. an exported function that takes a context.Context must actually use
//     it (a dead ctx parameter advertises cancellation it doesn't honor);
//  2. an exported function that transitively reaches blocking storage I/O
//     must take a context.Context, so callers can abandon a slow disk
//     search — methods receiving an *http.Request (whose ctx rides the
//     request) and String/Error methods are exempt;
//  3. inside a function that has a ctx parameter, calling another function
//     with a fresh context.Background()/context.TODO() severs the chain
//     and is flagged (assigning a default when the caller passed nil is
//     fine — that's the documented compat path);
//  4. in the storage packages (the ctx-scoped set plus pager and faults,
//     where the backoff loops live), time.Sleep inside a loop is flagged:
//     a retry loop must sleep through a timer + ctx select (faults.Sleep)
//     so cancellation interrupts the backoff, not just the next attempt.
func checkCtxFlow(prog *Program, r *Reporter) {
	idx := NewFuncIndex(prog)

	// ioFuncs: functions that perform storage I/O directly, then the
	// transitive closure of module callers.
	reachesIO := map[*types.Func]bool{}
	callers := map[*types.Func][]*types.Func{} // callee -> callers
	for _, fi := range idx.All {
		if fi.Obj == nil {
			continue
		}
		if directIO(fi) {
			reachesIO[fi.Obj] = true
		}
		info := fi.Pkg.Info
		obj := fi.Obj
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := CalleeOf(info, call); callee != nil {
				callers[callee] = append(callers[callee], obj)
			}
			return true
		})
	}
	queue := make([]*types.Func, 0, len(reachesIO))
	for fn := range reachesIO {
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range callers[fn] {
			if !reachesIO[caller] {
				reachesIO[caller] = true
				queue = append(queue, caller)
			}
		}
	}

	for _, fi := range idx.All {
		if fi.Obj == nil {
			continue
		}
		if inScope(fi.Pkg.ImportPath, sleepScope) {
			reportSleepInLoops(fi, r)
		}
		if !inScope(fi.Pkg.ImportPath, ctxScope) {
			continue
		}
		ctxParam := ctxParamOf(fi)

		if ctxParam != nil {
			if !identUsed(fi.Pkg.Info, fi.Decl.Body, ctxParam) {
				r.Report(fi.Decl.Pos(), "ctx-flow",
					fmt.Sprintf("%s takes a context.Context but never uses it; forward it to callees or drop the parameter", fi.Name()))
			}
			reportFreshCtxCalls(fi, r)
		}

		if ctxParam == nil && isAPIExported(fi) && reachesIO[fi.Obj] && !ctxExempt(fi) {
			r.Report(fi.Decl.Pos(), "ctx-flow",
				fmt.Sprintf("exported %s reaches storage I/O but takes no context.Context; slow disk searches cannot be cancelled", fi.Name()))
		}
	}
}

// ctxScope includes internal/lint itself: `make lint` loads the whole
// module, so the analyzer's own API is held to the ctx-flow (and
// error-taxonomy) rules it enforces on everyone else. sleepScope widens it
// with the storage substrate, whose retry/backoff loops are exactly where
// an uncancellable sleep would pin a query past its deadline.
var (
	ctxScope   = []string{"core", "diskindex", "server", "front", "cluster", "lint", "ctxflow", "clusterctx"}
	sleepScope = append([]string{"pager", "faults"}, ctxScope...)
)

// httpClientMethods are net/http's blocking request entry points. A shard
// RPC is I/O exactly like a page read: issuing one without the caller's
// context means a dead replica pins the query past its deadline, so the
// ctx-flow reachability treats them as direct I/O. RoundTrip covers
// custom transports; the package-level Get/Post/Head convenience
// functions resolve through Uses rather than Selections.
var httpClientMethods = map[string]bool{
	"Do":        true,
	"Get":       true,
	"Post":      true,
	"PostForm":  true,
	"Head":      true,
	"RoundTrip": true,
}

// directIO reports whether the function body itself calls a storage
// primitive (pager page/file transfer or store record access) or issues
// an HTTP request (a shard RPC).
func directIO(fi *FuncInfo) bool {
	return anyCall(fi.Decl.Body, func(call *ast.CallExpr) bool {
		if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
			return false
		}
		// A package-qualified call (http.Get, http.Post, ...) resolves
		// like a method.
		path, name := calleePathQual(fi.Pkg.Info, call)
		return ioMethods[name] && containsAny(path, "/pager", "/diskindex", "ctxflow") ||
			httpClientMethods[name] && (path == "net/http" || strings.Contains(path, "clusterctx"))
	})
}

// ctxParamOf returns the *types.Var of the function's context.Context
// parameter, if any.
func ctxParamOf(fi *FuncInfo) *types.Var {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) && p.Name() != "_" && p.Name() != "" {
			return p
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isAPIExported reports whether the function is reachable from outside its
// package: an exported function, or an exported method on an exported
// receiver type (a method on an unexported type is internal API even when
// its own name is capitalized to satisfy an interface).
func isAPIExported(fi *FuncInfo) bool {
	if !fi.Decl.Name.IsExported() {
		return false
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return true
}

// ctxExempt: handlers get ctx from the request; String/Error are display
// methods that must match stdlib interfaces.
func ctxExempt(fi *FuncInfo) bool {
	name := fi.Decl.Name.Name
	if name == "String" || name == "Error" || name == "GoString" {
		return true
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		pt := sig.Params().At(i).Type()
		ptr, ok := pt.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request" {
			return true
		}
	}
	return false
}

func identUsed(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			used = true
		}
		return true
	})
	return used
}

// reportSleepInLoops flags time.Sleep calls lexically inside any for/range
// loop: a loop that sleeps is a retry or polling loop, and a bare sleep
// cannot be interrupted by cancellation — the ctx-aware timer+select idiom
// (faults.Sleep) is the only legal wait there.
func reportSleepInLoops(fi *FuncInfo, r *Reporter) {
	info := fi.Pkg.Info
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.ForStmt:
				if s.Init != nil {
					walk(s.Init, inLoop)
				}
				if s.Cond != nil {
					walk(s.Cond, inLoop)
				}
				if s.Post != nil {
					walk(s.Post, inLoop)
				}
				walk(s.Body, true)
				return false
			case *ast.RangeStmt:
				walk(s.Body, true)
				return false
			case *ast.FuncLit:
				// A closure resets loop context: sleeping in a goroutine
				// launched from a loop is a different (legal) shape.
				walk(s.Body, false)
				return false
			case *ast.CallExpr:
				if !inLoop {
					return true
				}
				path, name := calleePathQual(info, s)
				if path == "time" && name == "Sleep" {
					r.Report(s.Pos(), "ctx-flow",
						"time.Sleep in a retry loop cannot be cancelled; use a timer + ctx select (faults.Sleep)")
				}
				return true
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

// reportFreshCtxCalls flags context.Background()/TODO() passed as a call
// argument inside a function that already has a ctx to forward. The
// assignment form (ctx = context.Background() when the caller passed nil)
// stays legal.
func reportFreshCtxCalls(fi *FuncInfo, r *Reporter) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			path, name := calleePathQual(info, inner)
			if path == "context" && (name == "Background" || name == "TODO") {
				r.Report(arg.Pos(), "ctx-flow",
					fmt.Sprintf("context.%s severs the cancellation chain; forward this function's ctx instead", name))
			}
		}
		return true
	})
}
