package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkSnapshotLifecycle enforces the refcounted epoch-snapshot protocol
// of DESIGN.md §2e on the reader side of the mutable index:
//
//  1. balance — every call that acquires a snapshot (a module method named
//     acquire/Acquire returning a snapshot type) is matched by a
//     release/Release on all paths, deferred or explicit: the acquired set
//     is branch-local state under pathWalk, as lock-balance's held locks
//     are. Returning the snapshot to the caller transfers ownership and is
//     legal; acquiring one and dropping the result leaks a refcount
//     forever and is not.
//  2. escape — a snapshot reference may not outlive its acquire scope:
//     scanEscapes with the snapshot predicate.
//
// The writer-side retirement list (parking a superseded snapshot until
// its readers drain) is exactly such a field store by design; it carries
// a reviewed //nnc:allow rather than a carve-out here, so the exception
// stays visible at the site that needs it.
func checkSnapshotLifecycle(prog *Program, r *Reporter) {
	scanEscapes(prog, r, "snapshot-lifecycle", "snapshot", "its acquire scope", isSnapshotType)
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		sc := &snapCheck{module: prog.Module, info: pkg.Info, r: r, fnName: fd.Name.Name}
		pathWalk{leaf: sc.stmt, eval: func(ast.Expr) {}, fork: sc.held.fork}.stmts(fd.Body.List)
		for _, h := range sc.held.live() {
			r.Report(fd.Body.Rbrace, "snapshot-lifecycle",
				fmt.Sprintf("%s: function end reached with snapshot %s still acquired (line %d); release it on every path or use defer",
					fd.Name.Name, h.name, r.fset.Position(h.pos).Line))
		}
	})
}

// snapCheck is the balance half's event handling: the acquired-snapshot
// set and what each leaf statement does to it.
type snapCheck struct {
	module string
	info   *types.Info
	r      *Reporter
	fnName string
	held   heldSet
}

// acquires reports whether e is a snapshot acquire: a call to a module
// function or method named acquire/Acquire whose single result is a
// snapshot type.
func (c *snapCheck) acquires(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := CalleeOf(c.info, call)
	if fn == nil || (fn.Name() != "acquire" && fn.Name() != "Acquire") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && isSnapshotType(c.module, sig.Results().At(0).Type())
}

// releaseTarget returns the printed expression of the snapshot a
// release/Release call gives back: its first snapshot-typed argument, or
// its receiver when the method hangs off the snapshot itself.
func (c *snapCheck) releaseTarget(call *ast.CallExpr) (string, bool) {
	var recv ast.Expr
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name, recv = fun.Sel.Name, fun.X
	}
	if name != "release" && name != "Release" {
		return "", false
	}
	isSnap := func(e ast.Expr) bool {
		t := c.info.TypeOf(e)
		return t != nil && isSnapshotType(c.module, t)
	}
	for _, arg := range call.Args {
		if isSnap(arg) {
			return exprString(arg), true
		}
	}
	if recv != nil && isSnap(recv) {
		return exprString(recv), true
	}
	return "", false
}

func (c *snapCheck) discarded(e ast.Expr) {
	c.r.Report(e.Pos(), "snapshot-lifecycle",
		fmt.Sprintf("%s: acquired snapshot is discarded; its refcount never drops and the epoch never reclaims", c.fnName))
}

func (c *snapCheck) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			rhs := rhsFor(s, i)
			if rhs == nil || !c.acquires(rhs) {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				c.held.acquire(id.Name, false, rhs.Pos())
			} else {
				c.discarded(rhs)
			}
		}
	case *ast.ExprStmt:
		if c.acquires(s.X) {
			c.discarded(s.X)
		} else if call, ok := s.X.(*ast.CallExpr); ok {
			if name, ok := c.releaseTarget(call); ok {
				c.held.release(name, false, false)
			}
		}
	case *ast.DeferStmt:
		deferredCalls(s, func(call *ast.CallExpr) {
			if name, ok := c.releaseTarget(call); ok {
				c.held.release(name, false, true)
			}
		})
	case *ast.ReturnStmt:
		// Returning the snapshot transfers ownership to the caller.
		for _, res := range s.Results {
			c.held.release(exprString(ast.Unparen(res)), false, false)
		}
		for _, h := range c.held.live() {
			c.r.Report(s.Pos(), "snapshot-lifecycle",
				fmt.Sprintf("%s: return with snapshot %s still acquired; release it on every path or use defer", c.fnName, h.name))
		}
	}
}
