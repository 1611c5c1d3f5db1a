package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkWALOrder verifies the commit protocol of DESIGN.md §2d on every
// function in the wal and diskindex packages: a transaction's page images
// are all appended before its commit record, a commit or checkpoint record
// is fsynced before any success return, and the log is never checkpointed
// or truncated while appended images still await their commit. The
// protocol state is branch-local under pathWalk, so the early-error-return
// shape (append; if err { return err }; commit) checks cleanly while a
// success path that skips a step is still caught.
//
// Tracked events, in the source order the walk encounters them:
//
//   - AppendPageImage marks images pending; pending images after the
//     commit record mean the image belongs to no transaction;
//   - FlushImages writes the buffered images: its failure is the clean
//     abort (nothing was promised), so it must precede every AppendCommit,
//     whose failure means indeterminate durability — a commit reached
//     without it would fold the first failure class into the second (the
//     rule is positional because images appended in a loop are invisible
//     to the branch-local state after the loop);
//   - AppendCommit consumes the pending images (the wal-package method
//     syncs internally, so callers are done);
//   - AppendCheckpoint / Reset / Truncate while images are pending would
//     silently discard the transaction;
//   - inside the wal package itself, appendRecord(RecCommit|RecCheckpoint)
//     arms a sync obligation that only an explicit Sync call (or a
//     "return f.Sync()" tail) discharges — error-aborting returns are
//     exempt, because a failed append never promised durability.
func checkWALOrder(prog *Program, r *Reporter) {
	eachFunc(prog.Pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		if !inScope(pkg.ImportPath, walScope) {
			return
		}
		w := &walCheck{pkg: pkg, r: r, fnName: fd.Name.Name}
		fork := func() func() {
			saved := w.st
			return func() { w.st = saved }
		}
		pathWalk{leaf: w.stmt, eval: func(e ast.Expr) { w.scanCalls(e) }, fork: fork}.stmts(fd.Body.List)
		w.checkExit(fd.Body.Rbrace, nil)
	})
}

var walScope = []string{"wal", "diskindex", "walorder"}

// walState is the branch-local protocol state.
type walState struct {
	images    bool // page images appended, commit record not yet seen
	flushed   bool // FlushImages called, no image appended since
	committed bool // commit record appended on this path
	needSync  bool // raw commit/checkpoint record appended, log not synced
	imagePos  ast.Node
	syncPos   ast.Node
}

// walCheck is wal-order's event handling over pathWalk.
type walCheck struct {
	pkg    *Package
	r      *Reporter
	fnName string
	st     walState
}

// protoCall classifies a call as a WAL-protocol event. Append*, FlushImages, Reset and
// appendRecord must resolve to the wal/diskindex packages (or a corpus);
// Sync and Truncate match any receiver, because the log's backing file is
// an os.File (or a faultfile wrapper) and a spurious state clear is merely
// conservative.
func (w *walCheck) protoCall(call *ast.CallExpr) (name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		// appendRecord is a plain method call in the corpus too; plain
		// ident calls only matter for the corpus's free-function form.
		if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "appendRecord" {
			return id.Name, true
		}
		return "", false
	}
	switch sel.Sel.Name {
	case "Sync", "Truncate":
		return sel.Sel.Name, true
	case "AppendPageImage", "FlushImages", "AppendCommit", "AppendCheckpoint", "Reset", "appendRecord":
		if path, _ := calleePathQual(w.pkg.Info, call); containsAny(path, "/wal", "/diskindex", "walorder") {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// recordTypeArmsSync reports whether an appendRecord call writes a commit
// or checkpoint record — the two record types whose append promises an
// fsync before the caller may report success.
func recordTypeArmsSync(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	var name string
	switch a := arg.(type) {
	case *ast.Ident:
		name = a.Name
	case *ast.SelectorExpr:
		name = a.Sel.Name
	default:
		return false
	}
	return name == "RecCommit" || name == "RecCheckpoint"
}

func (w *walCheck) handleCall(call *ast.CallExpr) {
	name, ok := w.protoCall(call)
	if !ok {
		return
	}
	switch name {
	case "AppendPageImage":
		if w.st.committed {
			w.r.Report(call.Pos(), "wal-order",
				fmt.Sprintf("%s: page image appended after the transaction's commit record; all images must precede AppendCommit", w.fnName))
		}
		w.st.images = true
		w.st.flushed = false
		w.st.imagePos = call
	case "FlushImages":
		w.st.flushed = true
	case "AppendCommit":
		if !w.st.flushed {
			w.r.Report(call.Pos(), "wal-order",
				fmt.Sprintf("%s: AppendCommit not preceded by FlushImages on this path; flush first so a failed image write aborts cleanly instead of surfacing as an indeterminate commit", w.fnName))
		}
		w.st.committed = true
		w.st.images = false
		w.st.flushed = false
	case "AppendCheckpoint":
		if w.st.images {
			w.r.Report(call.Pos(), "wal-order",
				fmt.Sprintf("%s: checkpoint record appended while page images await their commit; checkpoint may not precede the commit sync", w.fnName))
		}
	case "Reset", "Truncate":
		if w.st.images {
			w.r.Report(call.Pos(), "wal-order",
				fmt.Sprintf("%s: log truncated while page images await their commit; the transaction would be silently discarded", w.fnName))
		}
	case "Sync":
		w.st.needSync = false
	case "appendRecord":
		if recordTypeArmsSync(call) {
			w.st.needSync = true
			w.st.syncPos = call
		}
	}
}

// scanCalls visits every call in n in pre-order (skipping closures, which
// run on their own schedule) and feeds each to handleCall.
func (w *walCheck) scanCalls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if call, isCall := m.(*ast.CallExpr); isCall {
			w.handleCall(call)
		}
		return true
	})
}

// checkExit reports protocol obligations still pending at a function exit.
// ret is nil for the fall-off-the-end case.
func (w *walCheck) checkExit(pos token.Pos, ret *ast.ReturnStmt) {
	if ret != nil {
		// A tail that performs the sync itself (return l.f.Sync())
		// discharges the obligation before the abort test below.
		if returnContainsSync(ret) {
			w.st.needSync = false
		}
		if w.returnAborts(ret) {
			return // error path: a failed append never promised durability
		}
	}
	if w.st.needSync {
		line := 0
		if w.st.syncPos != nil {
			line = w.r.fset.Position(w.st.syncPos.Pos()).Line
		}
		w.r.Report(pos, "wal-order",
			fmt.Sprintf("%s: commit/checkpoint record appended (line %d) but the log is not synced on this success path; append must reach Sync before returning", w.fnName, line))
	}
	if w.st.images && !w.st.committed {
		line := 0
		if w.st.imagePos != nil {
			line = w.r.fset.Position(w.st.imagePos.Pos()).Line
		}
		w.r.Report(pos, "wal-order",
			fmt.Sprintf("%s: page images appended (line %d) but no commit record on this success path; the transaction is never durable", w.fnName, line))
	}
}

// returnContainsSync reports whether any result expression performs the
// log sync inline.
func returnContainsSync(ret *ast.ReturnStmt) bool {
	return anyCall(ret, func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Sync"
	})
}

// returnAborts reports whether the return carries a non-nil error value —
// the abort shape (return err / return fmt.Errorf(...)) that exempts a
// path from the protocol's success obligations.
func (w *walCheck) returnAborts(ret *ast.ReturnStmt) bool {
	info := w.pkg.Info
	for _, res := range ret.Results {
		e := ast.Unparen(res)
		if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		t := info.TypeOf(e)
		if t == nil {
			continue
		}
		if types.Implements(t, errorInterface()) {
			return true
		}
	}
	return false
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

func (w *walCheck) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		w.scanCalls(s)
		w.checkExit(s.Pos(), s)
		// Control never continues past a return: clear the state so a
		// top-level return isn't re-reported at the closing brace.
		w.st = walState{}
	case *ast.DeferStmt:
		// Deferred work runs at exit in unwound order; modelling it
		// path-sensitively is out of scope, and no commit path in the
		// repo defers protocol calls.
	default:
		w.scanCalls(stmt)
	}
}
