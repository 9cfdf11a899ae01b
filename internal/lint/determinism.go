// determinism guards two contracts. Virtual time: simclock-charged
// packages must compute identical results (stats, recipes, encoded
// artifacts) given identical inputs, regardless of host or wall clock.
// Inside the charged packages (lnode, gnode, oss, jobs, bench, repl, ec)
// it flags:
//
//   - time.Now / time.Since — wall clock leaking into charged paths;
//   - package-level math/rand functions (rand.Intn, rand.Shuffle, …) —
//     they draw from the process-global, randomly-seeded source;
//     explicitly seeded rand.New(rand.NewSource(seed)) is fine;
//   - os.Getenv / os.LookupEnv / os.Environ — ambient configuration that
//     makes results host-dependent.
//
// Same input, same bytes: there and in the packages that encode what goes
// to the store (recipe, container, kvstore, simindex, globalindex, core,
// cache) it flags
//
//   - `for k := range m` over a map whose iteration order escapes: the
//     body appends to a slice that is never sorted afterwards in the
//     same function, or writes directly to an output sink (Put, Write,
//     Encode, Marshal, Fprint*) from inside the loop. This is the bug
//     class the G-node serial-decide phase is designed around (DESIGN.md
//     §8: decisions are made in sorted container order) and the one a
//     recipe index encoded in map order was.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// chargedPackages are the simclock-charged packages by package name, so
// fixture packages with the same name are checked identically.
var chargedPackages = map[string]bool{
	"lnode": true,
	"gnode": true,
	"oss":   true,
	"jobs":  true,
	"bench": true,
	"repl":  true, // replicated index groups charge failover downtime to simclock
	"ec":    true, // erasure-coded tier charges shard I/O and reconstruction CPU
}

// encodingPackages are the packages, beyond the charged ones, whose output
// is bytes on the store: the map-order rule applies to them, the wall
// clock, rand and environment rules do not.
var encodingPackages = map[string]bool{
	"recipe": true, "container": true, "kvstore": true, "simindex": true,
	"globalindex": true, "core": true, "cache": true,
}

// allowedRandFuncs construct explicitly seeded generators and are
// deterministic given a deterministic seed.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// sinkMethods are call names that emit bytes whose order is the iteration
// order: container/OSS writes, encoders, and formatted output.
var sinkMethods = map[string]bool{
	"Put": true, "Write": true, "WriteString": true,
	"Encode": true, "Marshal": true, "MarshalIndent": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true,
}

func determinismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "no wall clock, global rand or env vars inside simclock-charged packages; no unsorted map iteration flowing into output there or where store objects are encoded",
		Run:  runDeterminism,
	}
}

func runDeterminism(p *Package) []Finding {
	charged := chargedPackages[p.Name]
	if !charged && !encodingPackages[p.Name] {
		return nil
	}
	var findings []Finding
	for _, f := range p.Files {
		if charged {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fd := p.nondeterministicCall(call); fd != nil {
						findings = append(findings, *fd)
					}
				}
				return true
			})
		}
		// Map-iteration analysis needs the enclosing function for the
		// "sorted later" escape hatch, so it walks per body.
		for _, fb := range fileFuncBodies(f) {
			findings = append(findings, p.checkMapRanges(fb)...)
		}
	}
	return findings
}

// nondeterministicCall flags time.Now/Since, global math/rand draws, and
// env reads.
func (p *Package) nondeterministicCall(call *ast.CallExpr) *Finding {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg := p.pkgNameOf(sel.X)
	if pkg == nil {
		return nil
	}
	name := sel.Sel.Name
	switch pkg.Path() {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			fd := p.finding("determinism", call.Pos(),
				"time.%s in simclock-charged package %s — charge virtual time via simclock, or suppress with a reason if this measures the host itself", name, p.Name)
			return &fd
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[name] {
			fd := p.finding("determinism", call.Pos(),
				"rand.%s draws from the global, randomly-seeded source — use rand.New(rand.NewSource(seed)) with an explicit seed", name)
			return &fd
		}
	case "os":
		if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
			fd := p.finding("determinism", call.Pos(),
				"os.%s makes results depend on ambient host configuration — plumb the value through Config, or suppress with a reason for artifact paths", name)
			return &fd
		}
	}
	return nil
}

// checkMapRanges flags map iterations whose order escapes into output.
func (p *Package) checkMapRanges(fb funcBody) []Finding {
	var findings []Finding
	// Collect the range statements over maps, shallowly (nested literals
	// are their own funcBody).
	inspectShallow(fb.body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		findings = append(findings, p.checkOneMapRange(fb, rng)...)
		return true
	})
	return findings
}

func (p *Package) checkOneMapRange(fb funcBody, rng *ast.RangeStmt) []Finding {
	var findings []Finding
	var appendTargets []string
	inspectShallow(rng.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(nn.Fun).(*ast.SelectorExpr); ok && sinkMethods[sel.Sel.Name] {
				findings = append(findings, p.finding("determinism", nn.Pos(),
					"map iteration order flows into %s.%s — emit in sorted key order instead", types.ExprString(sel.X), sel.Sel.Name))
			}
		case *ast.AssignStmt:
			// v = append(v, ...) inside the loop: iteration order becomes
			// slice order.
			for i, rhs := range nn.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				if i < len(nn.Lhs) {
					if id, ok := ast.Unparen(nn.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
						appendTargets = append(appendTargets, id.Name)
					}
				}
			}
		}
		return true
	})
	for _, target := range appendTargets {
		if !p.sortedLater(fb, target) {
			findings = append(findings, p.finding("determinism", rng.Pos(),
				"map iteration appends to %q, which is never sorted in this function — slice order is the map's random iteration order", target))
		}
	}
	return findings
}

// sortedLater reports whether the function body contains a sort of the
// named slice: sort.*/slices.Sort* taking it as an argument, or any call
// whose name contains "sort" mentioning it (covers local helpers like
// core.SortContainerIDs).
func (p *Package) sortedLater(fb funcBody, varName string) bool {
	found := false
	inspectShallow(fb.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(p, call) {
			return true
		}
		for _, a := range call.Args {
			mentioned := false
			ast.Inspect(a, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && id.Name == varName {
					mentioned = true
				}
				return !mentioned
			})
			if mentioned {
				found = true
				break
			}
		}
		return true
	})
	return found
}

func isSortCall(p *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if pkg := p.pkgNameOf(fun.X); pkg != nil {
			if pkg.Path() == "sort" || pkg.Path() == "slices" {
				return true
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}
