// Package lint is slimlint: a project-invariant static analyzer for this
// repository. The rules the system stakes its correctness on that no test
// can observe — the virtual-time determinism contract of internal/simclock,
// the error discipline of the storage layer, context plumbing — are
// checked at compile time, over plain go/ast + go/types (no x/tools), so a
// refactor that sneaks wall-clock time into a charged path fails the gate
// instead of surfacing later as a drifting number.
//
// Analyzers (see DESIGN.md §9 for the invariant each one guards):
//
//   - determinism: no time.Now, global math/rand, or os.Getenv inside
//     simclock-charged packages (lnode, gnode, oss, jobs, bench, repl,
//     ec), and — there and in the packages that encode store objects — no
//     map iteration flowing into encoded output without a sort.
//   - errdiscipline: no discarded error results from the oss, kvstore or
//     container APIs; `_ =` needs a //slimlint:ignore with a reason.
//   - ctxflow: no context.Background()/TODO() outside package main and
//     tests; a function that receives a ctx forwards that ctx.
//
// What is observable at run time is checked there instead, under the
// suites that already run: the lock hierarchy by internal/lockrank, pool
// lifetimes by internal/poison, goroutine lifetimes by internal/leakcheck,
// the read-only contract of fetched bytes by oss.Frozen (DESIGN.md §9 has
// the table).
//
// Findings are suppressed line-by-line with
//
//	//slimlint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. The reason is mandatory: a
// bare ignore is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
)

// Finding is one rule violation at a position.
type Finding struct {
	Analyzer string
	File     string // module-relative path
	Line     int
	Col      int
	Message  string
}

// String renders the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// WriteHuman renders findings one per line in the file:line:col layout
// editors hyperlink, grouped under a diff-style per-file header, with a
// trailing count.
func WriteHuman(w io.Writer, findings []Finding) {
	lastFile := ""
	for _, f := range findings {
		if f.File != lastFile {
			fmt.Fprintf(w, "--- %s\n", f.File)
			lastFile = f.File
		}
		fmt.Fprintln(w, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(w, "\nslimlint: %d finding(s)\n", len(findings))
	}
}

// Analyzer is one named rule set, run over one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package) []Finding
}

// Analyzers returns the full suite, in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		errDisciplineAnalyzer(),
		ctxFlowAnalyzer(),
	}
}

// AnalyzerNames lists the suite's names, in report order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes every analyzer over pkgs, applies //slimlint:ignore
// suppressions, and returns the surviving findings sorted by position.
// Invalid directives (missing reason) and unused directives are reported
// as findings of the synthetic "suppression" analyzer.
func Run(pkgs []*Package) []Finding {
	var all []Finding
	for _, a := range Analyzers() {
		for _, pkg := range pkgs {
			all = append(all, a.Run(pkg)...)
		}
	}
	all = applySuppressions(pkgs, all)
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})
	return all
}

// finding builds a Finding at pos within pkg.
func (p *Package) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     p.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers.

// pkgNameOf resolves a selector base like `time` in `time.Now` to the
// imported package it names, or nil if the base is not a package
// qualifier.
func (p *Package) pkgNameOf(e ast.Expr) *types.Package {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// namedRecv dereferences pointers and returns the named type of t, or nil.
func namedRecv(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// calleeFunc resolves the *types.Func a call invokes (plain function or
// method), or nil for builtins, conversions, and indirect calls through
// function values.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcBody is one function body in a file — a declared function or
// method, or a function literal — paired with the parameter list in scope
// for it. Literals are bodies of their own: a goroutine or deferred
// closure does not inherit the ctx of its lexical parent, and treating
// them separately keeps the analyzers conservative.
type funcBody struct {
	typ  *ast.FuncType
	body *ast.BlockStmt
}

func fileFuncBodies(f *ast.File) []funcBody {
	var out []funcBody
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcBody{typ: fd.Type, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcBody{typ: fl.Type, body: fl.Body})
			}
			return true
		})
	}
	return out
}

// inspectShallow walks n without descending into nested function
// literals; fileFuncBodies hands those out as bodies of their own.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
