package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkLockBalance verifies, for every function in the pager, diskindex
// and wal packages, that each mutex Lock/RLock is matched by an Unlock/RUnlock on
// every return path (deferred or explicit), and that no page-file or store
// I/O call executes while a lock is held. The analysis is a source-order
// walk with branch-local lock state: entering a nested block snapshots the
// held set and leaving restores it, so the common early-return pattern
// (lock; if err { unlock; return }; ...; unlock; return) checks cleanly
// while a branch that returns with the lock held is still caught.
func checkLockBalance(prog *Program, r *Reporter) {
	for _, pkg := range prog.Pkgs {
		if !lockScopedPkg(pkg.ImportPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lb := &lockWalker{pkg: pkg, r: r, fnName: fd.Name.Name}
				lb.walkBlock(fd.Body)
				// A function that falls off the end with a live lock is
				// only a leak if it isn't the "lock in one method, unlock
				// in another" pattern; sync code in this repo never does
				// that, so flag it.
				for _, h := range lb.liveLocks() {
					r.Report(fd.Body.Rbrace, "lock-balance",
						fmt.Sprintf("%s: function end reached with %s still locked", fd.Name.Name, h.recv))
				}
			}
		}
	}
}

func lockScopedPkg(path string) bool {
	seg := path[strings.LastIndex(path, "/")+1:]
	return seg == "pager" || seg == "diskindex" || seg == "wal" || seg == "front" ||
		seg == "cluster" ||
		strings.Contains(path, "lockbalance") // testdata corpora
}

// ioMethods are the blocking storage primitives that must never run under
// a lock: holding a shard lock across one serializes every concurrent
// search behind a disk read — and the WAL appends sync the log, so one
// held across them serializes every commit behind an fsync.
var ioMethods = map[string]bool{
	"ReadPage":         true,
	"ReadPageCtx":      true,
	"WritePage":        true,
	"Sync":             true,
	"Allocate":         true,
	"ReadVia":          true,
	"Append":           true,
	"AppendPageImage":  true,
	"AppendCommit":     true,
	"AppendCheckpoint": true,
	// An engine search may walk the disk index, so the front door's cache
	// and coalescer shard locks must never be held across one, or a slow
	// page read serializes every request hashing to that shard.
	"SearchKCtx": true,
	// The router's shard RPCs: a replica call or health probe is a full
	// network round trip — held across the latency-window or breaker
	// mutex it would serialize every concurrent fan-out behind one slow
	// replica.
	"ShardQuery":  true,
	"ProbeHealth": true,
}

type heldLock struct {
	recv  string // printed receiver expression, e.g. "sh.mu"
	read  bool
	pos   ast.Node
	defrd bool // a defer releases it on every path
}

type lockWalker struct {
	pkg    *Package
	r      *Reporter
	fnName string
	held   []heldLock
}

func (w *lockWalker) isMutexCall(call *ast.CallExpr) (recv string, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	selection, okSel := w.pkg.Info.Selections[sel]
	if !okSel {
		return "", "", false
	}
	fn, okFn := selection.Obj().(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}

func (w *lockWalker) acquire(recv string, read bool, n ast.Node) {
	w.held = append(w.held, heldLock{recv: recv, read: read, pos: n})
}

func (w *lockWalker) release(recv string, read bool) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].recv == recv && w.held[i].read == read {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
	// Unlock without a matching lock in this branch: conditional locking;
	// out of scope for this analysis.
}

func (w *lockWalker) markDeferred(recv string, read bool) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].recv == recv && w.held[i].read == read {
			w.held[i].defrd = true
			return
		}
	}
}

// liveLocks returns the locks currently held and not covered by a defer.
func (w *lockWalker) liveLocks() []heldLock {
	var live []heldLock
	for _, h := range w.held {
		if !h.defrd {
			live = append(live, h)
		}
	}
	return live
}

// anyHeld reports whether any lock (deferred or not) is currently held —
// a deferred unlock still means the lock is held at this program point.
func (w *lockWalker) anyHeld() (heldLock, bool) {
	if len(w.held) == 0 {
		return heldLock{}, false
	}
	return w.held[len(w.held)-1], true
}

// walkBlock walks statements in order, updating lock state.
func (w *lockWalker) walkBlock(b *ast.BlockStmt) {
	for _, stmt := range b.List {
		w.walkStmt(stmt)
	}
}

func (w *lockWalker) snapshot() []heldLock {
	s := make([]heldLock, len(w.held))
	copy(s, w.held)
	return s
}

func (w *lockWalker) restore(s []heldLock) { w.held = s }

func (w *lockWalker) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			w.handleCall(call)
			return
		}
		w.scanIOUnderLock(s)
	case *ast.DeferStmt:
		if recv, method, ok := w.isMutexCall(s.Call); ok {
			switch method {
			case "Unlock":
				w.markDeferred(recv, false)
			case "RUnlock":
				w.markDeferred(recv, true)
			}
			return
		}
		// A deferred closure releasing the lock counts too.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if recv, method, ok := w.isMutexCall(call); ok {
						switch method {
						case "Unlock":
							w.markDeferred(recv, false)
						case "RUnlock":
							w.markDeferred(recv, true)
						}
					}
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, h := range w.liveLocks() {
			w.r.Report(s.Pos(), "lock-balance",
				fmt.Sprintf("return with %s still locked (acquired at line %d); unlock on every path or use defer",
					h.recv, w.r.fset.Position(h.pos.Pos()).Line))
		}
		w.scanIOUnderLock(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.scanIOUnderLock(s.Cond)
		snap := w.snapshot()
		w.walkBlock(s.Body)
		w.restore(snap)
		if s.Else != nil {
			snap = w.snapshot()
			w.walkStmt(s.Else)
			w.restore(snap)
		}
	case *ast.BlockStmt:
		w.walkBlock(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		snap := w.snapshot()
		w.walkBlock(s.Body)
		w.restore(snap)
	case *ast.RangeStmt:
		w.scanIOUnderLock(s.X)
		snap := w.snapshot()
		w.walkBlock(s.Body)
		w.restore(snap)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			snap := w.snapshot()
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
			w.restore(snap)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			snap := w.snapshot()
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
			w.restore(snap)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			snap := w.snapshot()
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
			w.restore(snap)
		}
	default:
		w.scanIOUnderLock(stmt)
	}
}

func (w *lockWalker) handleCall(call *ast.CallExpr) {
	if recv, method, ok := w.isMutexCall(call); ok {
		switch method {
		case "Lock":
			w.acquire(recv, false, call)
		case "RLock":
			w.acquire(recv, true, call)
		case "Unlock":
			w.release(recv, false)
		case "RUnlock":
			w.release(recv, true)
		}
		return
	}
	w.scanIOUnderLock(call)
}

// scanIOUnderLock flags storage I/O calls made while any lock is held.
func (w *lockWalker) scanIOUnderLock(n ast.Node) {
	if n == nil {
		return
	}
	h, locked := w.anyHeld()
	if !locked {
		return
	}
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
		selection, ok := w.pkg.Info.Selections[sel]
		if !ok {
			return true
		}
		fn, ok := selection.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if !strings.Contains(path, "/pager") && !strings.Contains(path, "/diskindex") &&
			!strings.Contains(path, "/wal") && !strings.Contains(path, "/server") &&
			!strings.Contains(path, "/cluster") && !strings.Contains(path, "lockbalance") {
			return true
		}
		w.r.Report(call.Pos(), "lock-balance",
			fmt.Sprintf("%s.%s performs storage I/O while %s is held; release the lock around the transfer",
				exprString(sel.X), sel.Sel.Name, h.recv))
		return true
	})
}
