// Package lint is nnclint: a project-specific static-analysis suite built
// entirely on the standard library (go/parser, go/ast, go/types, go/token —
// no golang.org/x/tools), enforcing eight conventions that are spread over
// many sites and that no Go type can state. (What one function can own —
// the WAL's write order, a snapshot pin's release — lives in that function,
// wal.Log.Commit and diskindex.Index.pinned, not here; what the toolchain
// already reports — allocs/op under -benchmem — is not re-implemented.)
//
//   - hotpath-alloc: functions annotated //nnc:hotpath — and everything they
//     statically call inside the module — must not contain allocating
//     constructs (make, new, escaping composite literals, map writes,
//     non-reuse append, string concatenation, escaping closures, interface
//     boxing, calls into fmt/reflect/regexp/sort.Slice);
//   - scratch-escape: values carved out of internal/slab arenas or a
//     core.CheckScratch must not outlive their search (no package-level
//     stores, channel sends, or go-statement captures);
//   - lock-balance: every Lock/RLock in the pager, diskindex, wal and
//     front packages is released on all return paths, and no page-file
//     I/O, WAL commit or engine search runs while a shard lock is held;
//   - ctx-flow: exported engine/backend methods that reach storage I/O take
//     a context.Context and actually forward it;
//   - snapshot-lifecycle: no epoch-snapshot reference escapes the search
//     that reads through it (package-level stores, channel sends,
//     go-statement captures, fields of long-lived structs);
//   - goroutine-lifecycle: every go statement selects on ctx.Done in its
//     body, is joined by a WaitGroup or channel, or carries an explained
//     //nnc:detached annotation;
//   - error-taxonomy: the storage and server packages wrap underlying
//     errors with %w (so errors.Is quarantine routing keeps working), and
//     the storage packages never mint one-off errors.New values inside
//     function bodies;
//   - atomic-publish: atomic.Pointer fields are stored only at annotated
//     //nnc:publish sites and never aliased or copied around Load/Store.
//
// Findings print as "file:line:col: [check] message" and are suppressible
// only by an explained annotation:
//
//	//nnc:allow <check>: <reason>   on the flagged line or the line above
//	//nnc:coldpath <reason>         on a function declaration: the function
//	                                amortizes its own allocations (lazy
//	                                one-time builds, slab growth); the
//	                                hot-path walk does not descend into it
//	//nnc:hotpath                   on a function declaration: the function
//	                                is a steady-state hot-path root
//	//nnc:detached <reason>         on a go statement: the goroutine is
//	                                deliberately unjoined (process-lifetime
//	                                listener, fire-and-forget warmup)
//	//nnc:publish <reason>          on an atomic.Pointer store: this line is
//	                                a sanctioned publication site
//
// A reason is mandatory everywhere; an annotation that suppresses or
// blesses nothing is itself a finding, so stale suppressions cannot
// linger, and an //nnc:allow naming a check the registry doesn't know is
// flagged rather than silently ignored.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String formats the diagnostic in the clickable file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
}

// lineKey identifies the source line a directive sits on.
type lineKey struct {
	file string
	line int
}

// directive is one //nnc:allow, //nnc:publish or //nnc:detached comment:
// an explained declaration that the finding a check would raise on this or
// the next line is a sanctioned exception. An allow names the check it
// answers to; a publish or detached belongs to the one check that owns
// that spelling. A reason is mandatory, and a directive that covers
// nothing is itself a finding — scoped to its check having run, so partial
// runs stay quiet.
type directive struct {
	pos    token.Position
	kind   string // "allow", "publish" or "detached"
	check  string // the check whose findings it covers
	reason string
	used   bool
}

// Reporter collects diagnostics and applies directive suppression.
type Reporter struct {
	fset       *token.FileSet
	diags      []Diagnostic
	directives map[lineKey][]*directive
	known      map[string]bool // registered check names; validates allow targets
	ran        map[string]bool // checks that executed; scopes unused-directive findings
}

// NewReporter builds a reporter over the program's line directives.
func NewReporter(prog *Program) *Reporter {
	r := &Reporter{
		fset:       prog.Fset,
		directives: map[lineKey][]*directive{},
		known:      map[string]bool{},
		ran:        map[string]bool{},
	}
	// The allow grammar validates check names against the live registry,
	// so a typo'd //nnc:allow for any check — current or future — is a
	// finding instead of a silent no-op.
	for _, c := range Checks() {
		r.known[c.Name] = true
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					r.collect(c)
				}
			}
		}
	}
	return r
}

const (
	// hotpathDirective and coldpathDirective are matched in callgraph.go;
	// named here so the directive grammar lives in one place.
	hotpathDirective  = "//nnc:hotpath"
	coldpathDirective = "//nnc:coldpath"
)

// lineDirectives maps each line-directive kind to the check that owns it;
// an allow names its own.
var lineDirectives = map[string]string{
	"allow":    "",
	"detached": "goroutine-lifecycle",
	"publish":  "atomic-publish",
}

// collect files c in the directive table if it is a line directive:
// "//nnc:allow <check>: <reason>" or "//nnc:<kind> <reason>". A malformed
// or misdirected allow covers nothing and is reported here; a publish or
// detached without a reason still covers its site — Finish reports the
// directive itself, so each mistake surfaces exactly once.
func (r *Reporter) collect(c *ast.Comment) {
	text, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//nnc:")
	if !ok {
		return
	}
	kind, rest, _ := strings.Cut(text, " ")
	owner, ok := lineDirectives[kind]
	if !ok {
		return
	}
	d := &directive{pos: r.fset.Position(c.Pos()), kind: kind, check: owner, reason: strings.TrimSpace(rest)}
	if kind == "allow" {
		check, reason, _ := strings.Cut(rest, ":")
		d.check, d.reason = strings.TrimSpace(check), strings.TrimSpace(reason)
		msg := ""
		switch {
		case d.check == "" || d.reason == "":
			msg = "malformed //nnc:allow: want \"//nnc:allow <check>: <reason>\" with a non-empty reason"
		case !r.known[d.check]:
			msg = fmt.Sprintf("//nnc:allow names unknown check %q; it would suppress nothing (see nnclint -list)", d.check)
		}
		if msg != "" {
			r.diags = append(r.diags, Diagnostic{Pos: d.pos, Check: "allow", Msg: msg})
			return
		}
	}
	key := lineKey{file: d.pos.Filename, line: d.pos.Line}
	r.directives[key] = append(r.directives[key], d)
}

// covered reports whether a directive of the given kind for the given
// check sits on pos's line or the line immediately above, marking it used.
func (r *Reporter) covered(p token.Position, kind, check string) bool {
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range r.directives[lineKey{file: p.Filename, line: line}] {
			if d.kind == kind && d.check == check {
				d.used = true
				return true
			}
		}
	}
	return false
}

// SiteAllowed reports whether a //nnc:publish or //nnc:detached (kind)
// blesses pos.
func (r *Reporter) SiteAllowed(pos token.Pos, kind string) bool {
	return r.covered(r.fset.Position(pos), kind, lineDirectives[kind])
}

// Report files a finding at pos unless an //nnc:allow for the same check
// covers it.
func (r *Reporter) Report(pos token.Pos, check, msg string) {
	p := r.fset.Position(pos)
	if !r.covered(p, "allow", check) {
		r.diags = append(r.diags, Diagnostic{Pos: p, Check: check, Msg: msg})
	}
}

// Finish appends findings for directives that lack a reason or covered
// nothing (scoped to the checks that actually ran, so partial runs don't
// flag other checks' directives) and returns the sorted diagnostics.
func (r *Reporter) Finish() []Diagnostic {
	for _, ds := range r.directives {
		for _, d := range ds {
			if !r.ran[d.check] {
				continue
			}
			diag := Diagnostic{Pos: d.pos, Check: d.check}
			switch {
			case d.reason == "":
				diag.Msg = fmt.Sprintf("malformed //nnc:%s: want \"//nnc:%s <reason>\" with a non-empty reason", d.kind, d.kind)
			case d.used:
				continue
			case d.kind == "allow":
				diag.Check = "allow"
				diag.Msg = fmt.Sprintf("unused //nnc:allow %s: nothing on this or the next line triggers that check; delete the stale suppression", d.check)
			default:
				diag.Msg = fmt.Sprintf("unused //nnc:%s: nothing on this or the next line needs blessing; delete the stale annotation", d.kind)
			}
			r.diags = append(r.diags, diag)
		}
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return r.diags
}

// Check is one pluggable analysis.
type Check struct {
	Name string
	Run  func(prog *Program, r *Reporter)
}

// Checks returns the full suite in a stable order.
func Checks() []Check {
	return []Check{
		{Name: "hotpath-alloc", Run: checkHotpathAlloc},
		{Name: "scratch-escape", Run: checkScratchEscape},
		{Name: "lock-balance", Run: checkLockBalance},
		{Name: "ctx-flow", Run: checkCtxFlow},
		{Name: "snapshot-lifecycle", Run: checkSnapshotLifecycle},
		{Name: "goroutine-lifecycle", Run: checkGoroutineLifecycle},
		{Name: "error-taxonomy", Run: checkErrorTaxonomy},
		{Name: "atomic-publish", Run: checkAtomicPublish},
	}
}

// Run executes the given checks — Checks() or a subset of it — over the
// program and returns the sorted, suppression-filtered findings. Only the
// directives of checks that ran are policed for staleness.
func Run(prog *Program, checks []Check) []Diagnostic {
	r := NewReporter(prog)
	for _, c := range checks {
		r.ran[c.Name] = true
		c.Run(prog, r)
	}
	return r.Finish()
}
