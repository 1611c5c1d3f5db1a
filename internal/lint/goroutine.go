package lint

import (
	"go/ast"
	"go/types"
)

// checkGoroutineLifecycle requires every go statement in the module's
// non-test code to have a teardown story. A spawn is compliant when:
//
//   - its body (or the body of a statically resolvable module callee)
//     selects on a ctx.Done channel, so cancellation reaches it;
//   - the enclosing function joins it — a sync.WaitGroup Wait call, or a
//     receive from a channel the goroutine sends on or closes;
//   - the spawn line carries //nnc:detached <reason>, declaring the
//     goroutine deliberately unjoined (a process-lifetime listener, a
//     fire-and-forget warmup) with the why on record.
//
// Anything else is a goroutine nothing can stop: it outlives deadlines,
// leaks under test churn, and turns shutdown into a race. Test files are
// exempt (they are parse-only and t.Cleanup patterns differ).
func checkGoroutineLifecycle(prog *Program, r *Reporter) {
	idx := NewFuncIndex(prog)
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if ok && !goStmtCompliant(idx, pkg.Info, fd, g) && !r.SiteAllowed(g.Pos(), "detached") {
				r.Report(g.Pos(), "goroutine-lifecycle",
					"goroutine has no teardown path: select on ctx.Done in its body, join it with a WaitGroup or channel, or annotate the spawn //nnc:detached <reason>")
			}
			return true
		})
	})
}

func goStmtCompliant(idx *FuncIndex, info *types.Info, enclosing *ast.FuncDecl, g *ast.GoStmt) bool {
	// The spawned body: a func literal inline, or a module function we can
	// resolve statically.
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fi := idx.ByObj[CalleeOf(info, g.Call)]; fi != nil {
		body = fi.Decl.Body
	}
	if body != nil && referencesCtxDone(info, body) {
		return true
	}
	if waitsOnWaitGroup(info, enclosing.Body) {
		return true
	}
	return body != nil && channelJoined(enclosing.Body, body)
}

// referencesCtxDone reports whether the body calls Done() on a
// context.Context anywhere (including nested closures — a handler wired
// into the goroutine's machinery counts).
func referencesCtxDone(info *types.Info, body *ast.BlockStmt) bool {
	return anyCall(body, func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return false
		}
		t := info.TypeOf(sel.X)
		return t != nil && isContextType(t)
	})
}

// waitsOnWaitGroup reports whether the enclosing body contains a
// sync.WaitGroup Wait call — the classic fan-out join.
func waitsOnWaitGroup(info *types.Info, body *ast.BlockStmt) bool {
	return anyCall(body, func(call *ast.CallExpr) bool {
		path, name := calleePathQual(info, call)
		return path == "sync" && name == "Wait"
	})
}

// channelJoined reports whether a channel the goroutine sends on (or
// closes) is also received from in the enclosing function — the
// completion-signal join (errCh <- run(); ...; <-errCh). Channels are
// matched by printed expression, which is exact for the local-variable
// shape this idiom takes.
func channelJoined(enclosing, spawned *ast.BlockStmt) bool {
	sent := map[string]bool{}
	ast.Inspect(spawned, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			sent[exprString(ast.Unparen(s.Chan))] = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "close" && len(s.Args) == 1 {
				sent[exprString(ast.Unparen(s.Args[0]))] = true
			}
		}
		return true
	})
	if len(sent) == 0 {
		return false
	}
	joined := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch s := n.(type) {
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" && sent[exprString(ast.Unparen(s.X))] {
				joined = true
			}
		case *ast.RangeStmt:
			if sent[exprString(ast.Unparen(s.X))] {
				joined = true
			}
		}
		return true
	})
	return joined
}
