// ctxflow enforces context plumbing discipline: cancellation roots belong
// to process entry points. Outside package main (tests are never loaded),
// minting context.Background() or context.TODO() severs the caller's
// cancellation chain — a job submitted with a deadline would run a
// sub-operation that can never be cancelled. Inside a function that
// already receives a ctx the finding is sharper: the received ctx (or a
// context derived from it) is the one to forward.
package lint

import (
	"go/ast"
	"go/types"
)

func ctxFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "no context.Background()/TODO() outside package main; a received ctx must be the one forwarded",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(p *Package) []Finding {
	if p.Name == "main" {
		return nil
	}
	var findings []Finding
	for _, f := range p.Files {
		for _, fb := range fileFuncBodies(f) {
			hasCtx := funcHasCtxParam(p, fb.typ)
			inspectShallow(fb.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg := p.pkgNameOf(sel.X)
				if pkg == nil || pkg.Path() != "context" {
					return true
				}
				name := sel.Sel.Name
				if name != "Background" && name != "TODO" {
					return true
				}
				if hasCtx {
					findings = append(findings, p.finding("ctxflow", call.Pos(),
						"context.%s() inside a function that receives a ctx — forward the received ctx (or a context derived from it)", name))
				} else {
					findings = append(findings, p.finding("ctxflow", call.Pos(),
						"context.%s() outside package main — accept a ctx parameter and let the entry point own the root context", name))
				}
				return true
			})
		}
	}
	return findings
}

// funcHasCtxParam reports whether the function signature includes a
// context.Context parameter.
func funcHasCtxParam(p *Package, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok {
			continue
		}
		if named, ok := tv.Type.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}
