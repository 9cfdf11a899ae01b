// errdiscipline enforces that errors from the storage layer are handled.
// The oss, kvstore and container packages are the durability boundary: a
// swallowed error there is silent data loss (an unacked OSS put, a lost
// container meta, an unflushed WAL batch). Every call into
// those APIs whose last result is an error must consume it:
//
//   - a bare expression statement discarding the result is flagged;
//   - `defer f(...)` / `go f(...)` discarding the result is flagged;
//   - assigning the error position to `_` is flagged unless the line
//     carries a //slimlint:ignore errdiscipline <reason> suppression —
//     the discipline is that intentional discards are visible and
//     justified, not silent.
package lint

import (
	"go/ast"
	"go/types"
)

// errTargetPkgs are the import paths whose APIs must not have errors
// discarded.
var errTargetPkgs = map[string]bool{
	"slimstore/internal/oss":       true,
	"slimstore/internal/kvstore":   true,
	"slimstore/internal/container": true,
}

func errDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errdiscipline",
		Doc:  "errors returned by the oss/kvstore/container APIs must be consumed; `_ =` needs an ignore directive with a reason",
		Run:  runErrDiscipline,
	}
}

func runErrDiscipline(p *Package) []Finding {
	var findings []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					if name, ok := p.errTargetCall(call); ok {
						findings = append(findings, p.finding("errdiscipline", st.Pos(),
							"result of %s discarded — the error is the durability signal; handle it or assign and justify with //slimlint:ignore", name))
					}
				}
			case *ast.DeferStmt:
				if name, ok := p.errTargetCall(st.Call); ok {
					findings = append(findings, p.finding("errdiscipline", st.Pos(),
						"deferred %s discards its error — capture it in a named return or log it explicitly", name))
				}
			case *ast.GoStmt:
				if name, ok := p.errTargetCall(st.Call); ok {
					findings = append(findings, p.finding("errdiscipline", st.Pos(),
						"go %s discards its error — collect it through a channel or errgroup-style join", name))
				}
			case *ast.AssignStmt:
				findings = append(findings, p.checkErrAssign(st)...)
			}
			return true
		})
	}
	return findings
}

// errTargetCall reports whether call invokes a target-package function or
// method whose final result is an error, returning a display name.
func (p *Package) errTargetCall(call *ast.CallExpr) (string, bool) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !errTargetPkgs[fn.Pkg().Path()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return "", false
	}
	last := res.At(res.Len() - 1).Type()
	if !isErrorType(last) {
		return "", false
	}
	name := fn.Name()
	if recv := sig.Recv(); recv != nil {
		if named := namedRecv(recv.Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	} else {
		name = fn.Pkg().Name() + "." + name
	}
	return name, true
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// checkErrAssign flags `_` in the error position of an assignment whose
// RHS is a target-package call. The suppression layer (applySuppressions)
// lets a justified //slimlint:ignore keep it.
func (p *Package) checkErrAssign(st *ast.AssignStmt) []Finding {
	var findings []Finding
	flag := func(call *ast.CallExpr) {
		if name, ok := p.errTargetCall(call); ok {
			findings = append(findings, p.finding("errdiscipline", st.Pos(),
				"error from %s assigned to _ — add //slimlint:ignore errdiscipline <reason> if the discard is intentional", name))
		}
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value: v, _ := target(...). The error is the last result.
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				flag(call)
			}
		}
		return findings
	}
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) {
			break
		}
		id, ok := st.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			flag(call)
		}
	}
	return findings
}
