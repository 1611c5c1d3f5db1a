package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// eachFunc calls fn for every function declaration with a body in pkgs, in
// package, file and source order — the one driver loop the checks share.
func eachFunc(pkgs []*Package, fn func(pkg *Package, fd *ast.FuncDecl)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn(pkg, fd)
				}
			}
		}
	}
}

// inScope reports whether the last segment of an import path is one of
// segs. Every package-scoped check states its scope as such a list; a
// golden corpus is in scope by its directory name (testdata/lockbalance).
func inScope(path string, segs []string) bool {
	return slices.Contains(segs, path[strings.LastIndex(path, "/")+1:])
}

// containsAny reports whether s contains one of subs — how the checks ask
// "is this callee declared in one of the storage packages".
func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// anyCall reports whether pred holds for some call expression under n.
func anyCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && !found && pred(call) {
			found = true
		}
		return !found
	})
	return found
}

// pathWalk is the path-sensitive walker lock-balance, snapshot-lifecycle
// and wal-order share: a source-order walk of a function body with
// branch-local state. It alone decides how control flow is treated — which
// statements branch, and that an arm starts from the state at the branch
// point and leaves no trace after it — so the early-return shape
// (acquire; if err { release; return }; ...; release) checks cleanly while
// an arm that exits with an obligation open is still caught. Loops are
// arms too: a body may run zero times. A check supplies its event
// handling and nothing else.
type pathWalk struct {
	// leaf receives every statement that does not branch: expression,
	// assignment, defer, return, go, send, inc/dec, declaration — and the
	// ones a branching statement carries (init, for post, type-switch
	// assign, select comm).
	leaf func(ast.Stmt)
	// eval receives every expression a branching statement evaluates
	// itself: if and for conditions, range operand, switch tag and case
	// values.
	eval func(ast.Expr)
	// fork saves the check's state and returns the function that puts it
	// back; the walker calls it around every arm.
	fork func() (restore func())
}

func (w pathWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// arm walks one branch of a statement from the current state and restores
// that state afterwards.
func (w pathWalk) arm(list ...ast.Stmt) {
	restore := w.fork()
	w.stmts(list)
	restore()
}

func (w pathWalk) expr(e ast.Expr) {
	if e != nil {
		w.eval(e)
	}
}

func (w pathWalk) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.arm(s.Body)
		w.arm(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.arm(s.Body, s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.arm(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			restore := w.fork()
			for _, e := range cc.List {
				w.expr(e)
			}
			w.stmts(cc.Body)
			restore()
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			w.arm(c.(*ast.CaseClause).Body...)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.arm(append([]ast.Stmt{cc.Comm}, cc.Body...)...)
		}
	default:
		w.leaf(stmt)
	}
}

// deferredCalls hands fn the calls a defer statement makes at function
// exit: the deferred call itself, or every call in a deferred closure.
func deferredCalls(d *ast.DeferStmt, fn func(*ast.CallExpr)) {
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		fn(d.Call)
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// held is one acquired resource a balance check expects to see released:
// a mutex (lock-balance) or a snapshot binding (snapshot-lifecycle).
type held struct {
	name     string // printed expression, e.g. "sh.mu" or "snap"
	read     bool   // RLock rather than Lock; false for snapshots
	pos      token.Pos
	deferred bool // a defer releases it on every path from here
}

// heldSet is the branch-local state of both balance checks.
type heldSet []held

func (h *heldSet) acquire(name string, read bool, pos token.Pos) {
	*h = append(*h, held{name: name, read: read, pos: pos})
}

// release drops the innermost matching entry, or with deferred set marks
// it released-at-exit (it is still held at this program point). A release
// with no match in this branch is conditional acquisition: out of scope.
func (h *heldSet) release(name string, read, deferred bool) {
	for i := len(*h) - 1; i >= 0; i-- {
		if e := &(*h)[i]; e.name == name && e.read == read {
			if deferred {
				e.deferred = true
			} else {
				*h = slices.Delete(*h, i, i+1)
			}
			return
		}
	}
}

// live returns the entries no defer covers: what an exit here would leak.
func (h heldSet) live() []held {
	var out []held
	for _, e := range h {
		if !e.deferred {
			out = append(out, e)
		}
	}
	return out
}

func (h *heldSet) fork() func() {
	saved := slices.Clone(*h)
	return func() { *h = saved }
}
