// Package loading without golang.org/x/tools: slimlint walks the module
// itself, parses each package with go/parser, and type-checks with
// go/types. Imports inside the module resolve recursively through the
// same loader (so fixture packages under testdata/ can import real
// slimstore packages); everything else — the standard library — resolves
// through go/importer's "source" compiler, which type-checks from
// $GOROOT/src and needs no pre-built export data.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis. Test
// files (_test.go) are excluded: the invariants slimlint guards are about
// production paths, and tests legitimately use wall clocks, env vars, and
// ad-hoc contexts.
type Package struct {
	Path  string // import path (module-relative for in-module packages)
	Name  string // package name from the source
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	moduleDir string
}

// relPath renders filename relative to the module root, for stable output
// across machines.
func (p *Package) relPath(filename string) string {
	if rel, err := filepath.Rel(p.moduleDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// Loader loads and type-checks module packages. It implements
// types.ImporterFrom so packages under analysis can import each other.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset    *token.FileSet
	byDir   map[string]*Package // loaded packages, keyed by absolute dir
	loading map[string]bool     // import-cycle guard, keyed by absolute dir
	std     types.ImporterFrom  // source importer for out-of-module paths
}

// NewLoader locates the enclosing module from dir (walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImportFrom")
	}
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		fset:       fset,
		byDir:      map[string]*Package{},
		loading:    map[string]bool{},
		std:        std,
	}, nil
}

// modulePath reads the module directive from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load expands patterns ("./...", "dir/...", or plain directories,
// relative to cwd) and returns the matched packages, type-checked.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "." || root == "" {
			root = "."
		}
		if !recursive {
			add(root)
			continue
		}
		absRoot, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		err = filepath.WalkDir(absRoot, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// Skip hidden/tool directories, and testdata unless the walk
			// was explicitly rooted inside it (fixtures are linted by
			// naming them).
			if path != absRoot && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute in-module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (cached). Returns
// (nil, nil) when dir holds no non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.byDir[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			// Mixed-package directory (e.g. main + tool stubs); keep the
			// first package seen, matching go/build's primary package.
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", importPath, typeErrs[0])
	}
	pkg := &Package{
		Path:      importPath,
		Name:      pkgName,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		moduleDir: l.ModuleDir,
	}
	l.byDir[dir] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal import paths
// load through this loader (from source, recursively); everything else
// defers to the standard library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
