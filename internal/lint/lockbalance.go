package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// checkLockBalance verifies, for every function in the lock-scoped
// packages, that each mutex Lock/RLock is matched by an Unlock/RUnlock on
// every return path (deferred or explicit), and that no page-file or store
// I/O call executes while a lock is held. The held set is branch-local
// state under pathWalk, so the common early-return pattern
// (lock; if err { unlock; return }; ...; unlock; return) checks cleanly
// while a branch that returns with the lock held is still caught.
func checkLockBalance(prog *Program, r *Reporter) {
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		if !inScope(pkg.ImportPath, lockScope) {
			return
		}
		lc := &lockCheck{pkg: pkg, r: r}
		pathWalk{leaf: lc.stmt, eval: func(e ast.Expr) { lc.scanIOUnderLock(e) }, fork: lc.held.fork}.stmts(fd.Body.List)
		// A function that falls off the end with a live lock is only a
		// leak if it isn't the "lock in one method, unlock in another"
		// pattern; sync code in this repo never does that, so flag it.
		for _, h := range lc.held.live() {
			r.Report(fd.Body.Rbrace, "lock-balance",
				fmt.Sprintf("%s: function end reached with %s still locked", fd.Name.Name, h.name))
		}
	})
}

var lockScope = []string{"pager", "diskindex", "wal", "front", "cluster", "lockbalance"}

// ioMethods are the blocking storage primitives that must never run under
// a lock: holding a shard lock across one serializes every concurrent
// search behind a disk read — and the WAL's Commit and Checkpoint write
// and sync the log, so one held across them serializes every commit behind
// that I/O.
var ioMethods = map[string]bool{
	"ReadPage":    true,
	"ReadPageCtx": true,
	"WritePage":   true,
	"Sync":        true,
	"Allocate":    true,
	"ReadVia":     true,
	"Append":      true,
	"Commit":      true,
	"Checkpoint":  true,
	// An engine search may walk the disk index, so the front door's table
	// shard locks must never be held across one, or a slow page read
	// serializes every request hashing to that shard.
	"SearchKCtx": true,
	// The router's shard RPCs: a replica call or health probe is a full
	// network round trip — held across the latency-window or breaker
	// mutex it would serialize every concurrent fan-out behind one slow
	// replica.
	"ShardQuery":  true,
	"ProbeHealth": true,
}

// lockCheck is lock-balance's event handling: the held-lock set and what
// each leaf statement does to it.
type lockCheck struct {
	pkg  *Package
	r    *Reporter
	held heldSet
}

// mutexCall resolves a sync.Mutex/RWMutex method call to the printed
// receiver, whether it is the read side, and whether it acquires.
func (c *lockCheck) mutexCall(call *ast.CallExpr) (recv string, read, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if path, _ := calleePathQual(c.pkg.Info, call); !isSel || path != "sync" {
		return "", false, false, false
	}
	read = strings.HasPrefix(sel.Sel.Name, "R")
	switch strings.TrimPrefix(sel.Sel.Name, "R") {
	case "Lock":
		acquire = true
	case "Unlock":
	default:
		return "", false, false, false
	}
	return exprString(sel.X), read, acquire, true
}

func (c *lockCheck) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if recv, read, acquire, ok := c.mutexCall(call); ok {
				if acquire {
					c.held.acquire(recv, read, call.Pos())
				} else {
					c.held.release(recv, read, false)
				}
				return
			}
		}
	case *ast.DeferStmt:
		deferredCalls(s, func(call *ast.CallExpr) {
			if recv, read, acquire, ok := c.mutexCall(call); ok && !acquire {
				c.held.release(recv, read, true)
			}
		})
		return
	case *ast.ReturnStmt:
		for _, h := range c.held.live() {
			c.r.Report(s.Pos(), "lock-balance",
				fmt.Sprintf("return with %s still locked (acquired at line %d); unlock on every path or use defer",
					h.name, c.r.fset.Position(h.pos).Line))
		}
	}
	c.scanIOUnderLock(stmt)
}

// scanIOUnderLock flags storage I/O calls made while any lock is held — a
// deferred unlock still means the lock is held at this program point.
func (c *lockCheck) scanIOUnderLock(n ast.Node) {
	if len(c.held) == 0 {
		return
	}
	innermost := c.held[len(c.held)-1].name
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // closures run later, possibly after unlock
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !ioMethods[sel.Sel.Name] {
			return true
		}
		if path, _ := calleePathQual(c.pkg.Info, call); containsAny(path, "/pager", "/diskindex", "/wal", "/server", "/cluster", "lockbalance") {
			c.r.Report(call.Pos(), "lock-balance",
				fmt.Sprintf("%s.%s performs storage I/O while %s is held; release the lock around the transfer",
					exprString(sel.X), sel.Sel.Name, innermost))
		}
		return true
	})
}
