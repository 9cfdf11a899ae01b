// Whole-program call graph: the engine lockorder's cross-package check
// sits on. A Run builds one program over the target packages plus every
// in-module package they (transitively) import — all of which the loader
// already parsed and type-checked to satisfy the imports — and a call
// graph whose nodes are the declared functions and methods of those
// packages.
//
// Edges are resolved three ways:
//
//   - static calls (plain functions, concrete methods) through the
//     identifier's type object;
//   - interface method calls through method-set resolution: the callee
//     edge fans out to the matching method of every concrete type the
//     program declares that implements the interface — the over-
//     approximation that makes a `container` helper reached through an
//     `oss.Store` value visible to lockorder;
//   - calls through plain function values stay unresolved (a documented
//     gap).
//
// The graph has nodes and a resolver, no stored edges: lockorder, its one
// client, resolves the calls of a body as it walks it, skipping nested
// function literals (each is analyzed as a body of its own) and the
// spawned call of a `go` statement (it does not run under the caller's
// lock set). Its summaries are memoized depth-bounded DFS walks — bounded
// so a pathological call chain cannot make the linter super-linear, deep
// enough (maxSummaryDepth) that every real chain in this repository
// resolves.
package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// maxSummaryDepth bounds the transitive lock-summary walk. The deepest
// real chain in this tree is 4 frames; 8 leaves headroom without letting
// recursion run away.
const maxSummaryDepth = 8

// program is one analysis scope: the packages findings are reported for,
// plus every in-module dependency those packages can call into.
type program struct {
	all []*Package // the target packages ∪ transitive in-module imports, sorted by path

	graph *callGraph

	lockSums   map[*types.Func]*lockSummary
	lockActive map[*types.Func]bool // cycle guard for lock summaries
}

// newProgram collects the transitive in-module closure of pkgs from the
// loader cache and builds the call graph over it.
func newProgram(pkgs []*Package) *program {
	pr := &program{}
	seen := map[*Package]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		pr.all = append(pr.all, p)
		if p.loader == nil {
			return
		}
		for _, imp := range p.Types.Imports() {
			visit(p.loader.packageFor(imp))
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	sort.Slice(pr.all, func(i, j int) bool { return pr.all[i].Path < pr.all[j].Path })
	pr.graph = buildCallGraph(pr.all)
	pr.lockSums = map[*types.Func]*lockSummary{}
	pr.lockActive = map[*types.Func]bool{}
	return pr
}

// cgNode is one declared function or method with a body in the program.
type cgNode struct {
	pkg  *Package
	decl *ast.FuncDecl
}

type callGraph struct {
	nodes map[*types.Func]*cgNode
	// implCache memoizes interface-method → concrete-method fan-out.
	implCache map[*types.Func][]*types.Func
	// concrete holds every non-interface named type declared in the
	// program — the "types we instantiate" the method-set resolution
	// considers.
	concrete []*types.Named
}

// nodeFor returns the graph node holding fn's body, or nil for functions
// declared outside the program (standard library) or without bodies.
func (g *callGraph) nodeFor(fn *types.Func) *cgNode { return g.nodes[fn] }

func buildCallGraph(all []*Package) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*cgNode{}, implCache: map[*types.Func][]*types.Func{}}

	// Nodes for every declared function/method with a body, and the
	// program's concrete named types.
	for _, p := range all {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch dd := d.(type) {
				case *ast.FuncDecl:
					if dd.Body == nil {
						continue
					}
					if fn, ok := p.Info.Defs[dd.Name].(*types.Func); ok {
						g.nodes[fn] = &cgNode{pkg: p, decl: dd}
					}
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
						if !ok {
							continue
						}
						named, ok := obj.Type().(*types.Named)
						if !ok {
							continue
						}
						if !types.IsInterface(named) {
							g.concrete = append(g.concrete, named)
						}
					}
				}
			}
		}
	}
	return g
}

// resolveCall maps one call expression to its callee set: the function
// for a static call, the interface method and its fan-out to the matching
// concrete methods for an interface call, nothing for builtins,
// conversions and func-value calls.
func (g *callGraph) resolveCall(p *Package, call *ast.CallExpr) []*types.Func {
	fn := p.calleeFunc(call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return append([]*types.Func{fn}, g.implsOf(fn)...)
	}
	return []*types.Func{fn}
}

// implsOf resolves an interface method to the same-named method of every
// program-declared concrete type implementing the interface.
func (g *callGraph) implsOf(ifaceMethod *types.Func) []*types.Func {
	if impls, ok := g.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*types.Func
	recv := ifaceMethod.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if ok {
		for _, named := range g.concrete {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
			if m, ok := obj.(*types.Func); ok && g.nodes[m] != nil {
				impls = append(impls, m)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
	g.implCache[ifaceMethod] = impls
	return impls
}

// displayName renders fn for findings: the bare name within the reported
// package (matching how the code at the call site reads), qualified as
// pkg.Recv.Method for anything declared elsewhere.
func displayName(fn *types.Func, from *Package) string {
	name := fn.Name()
	if fn.Pkg() == nil || from == nil || fn.Pkg() == from.Types {
		return name
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecv(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}
