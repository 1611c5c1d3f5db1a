package lint

import (
	"fmt"
	"go/ast"
)

// checkBenchHygiene enforces two benchmark-quality rules. First, every
// Benchmark function must call b.ReportAllocs: the zero-allocation
// guarantees in this repo are only as good as the benchmarks that would
// show a regression, and a benchmark that hides allocs/op hides exactly
// the number we watch. Second, a benchmark that drives b.RunParallel
// must also call b.SetParallelism: RunParallel defaults to one goroutine
// per GOMAXPROCS, which on a small CI runner degenerates to a serial
// benchmark that reports "parallel" numbers — pinning the fan-out keeps
// the contention level the benchmark claims to measure.
//
// Test files are parsed but not type-checked (they may live in the
// package under test), so both checks are syntactic: a function named
// Benchmark* taking a single *testing.B must reach a <recv>.Method()
// call — directly, in a b.Run sub-benchmark closure, or through a
// same-package helper (many benchmarks here delegate the timed loop to
// runSearches-style helpers that report allocs on the sub-benchmark's
// behalf).
func checkBenchHygiene(prog *Program, r *Reporter) {
	// Same-package helpers the benchmarks may delegate to, by name.
	helpers := map[*Package]map[string]*ast.FuncDecl{}
	eachFunc(prog.TestASTs, func(pkg *Package, fd *ast.FuncDecl) {
		if fd.Recv != nil {
			return
		}
		if helpers[pkg] == nil {
			helpers[pkg] = map[string]*ast.FuncDecl{}
		}
		helpers[pkg][fd.Name.Name] = fd
	})
	eachFunc(prog.TestASTs, func(pkg *Package, fd *ast.FuncDecl) {
		if fd.Recv != nil || !isBenchmarkDecl(fd) {
			return
		}
		if !reachesMethodCall(fd, "ReportAllocs", helpers[pkg], map[*ast.FuncDecl]bool{}) {
			r.Report(fd.Pos(), "bench-hygiene",
				fmt.Sprintf("%s never calls b.ReportAllocs(); allocation regressions would be invisible in this benchmark", fd.Name.Name))
		}
		if reachesMethodCall(fd, "RunParallel", helpers[pkg], map[*ast.FuncDecl]bool{}) &&
			!reachesMethodCall(fd, "SetParallelism", helpers[pkg], map[*ast.FuncDecl]bool{}) {
			r.Report(fd.Pos(), "bench-hygiene",
				fmt.Sprintf("%s uses b.RunParallel without b.SetParallelism; the contention level then depends on GOMAXPROCS and the numbers are not comparable across machines", fd.Name.Name))
		}
	})
}

// reachesMethodCall walks fd's body looking for a <recv>.method() call,
// following plain same-package function calls into the helpers they
// delegate to.
func reachesMethodCall(fd *ast.FuncDecl, method string, helpers map[string]*ast.FuncDecl, seen map[*ast.FuncDecl]bool) bool {
	if seen[fd] {
		return false
	}
	seen[fd] = true
	return callsMethod(fd.Body, method) || anyCall(fd.Body, func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && helpers[id.Name] != nil && reachesMethodCall(helpers[id.Name], method, helpers, seen)
	})
}

// isBenchmarkDecl matches func BenchmarkXxx(b *testing.B) syntactically.
func isBenchmarkDecl(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if len(name) < len("Benchmark") || name[:len("Benchmark")] != "Benchmark" {
		return false
	}
	params := fd.Type.Params
	if params == nil || len(params.List) != 1 {
		return false
	}
	star, ok := params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "B" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "testing"
}

// callsMethod reports whether body contains any <x>.method(...) call.
func callsMethod(body *ast.BlockStmt, method string) bool {
	return anyCall(body, func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == method
	})
}
