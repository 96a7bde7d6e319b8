// Package driver runs analyzers over every package of a module,
// listed with `go list` and type-checked from source. Each package is
// analysed as the units `go vet` would hand a vet tool: the package with
// its in-package _test.go files, and its external test package (package
// p_test) on its own.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"github.com/gloss/active/internal/analysis"
)

// runAnalyzers applies every analyzer to one loaded unit and returns
// formatted, position-sorted diagnostics surviving suppression.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	includesTests bool, analyzers []*analysis.Analyzer) ([]string, error) {

	ignores := analysis.NewIgnoreIndex(fset, files)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:      a,
			Fset:          fset,
			Files:         files,
			Pkg:           pkg,
			TypesInfo:     info,
			IncludesTests: includesTests,
			Report: func(d analysis.Diagnostic) {
				if ignores.Ignored(d.Pos, a.Name) {
					return
				}
				d.Message = a.Name + ": " + d.Message
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	diags = append(diags, ignores.Malformed()...)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s", fset.Position(d.Pos), d.Message)
	}
	return out, nil
}

// listedPkg is the slice of `go list -json` output the loader needs.
type listedPkg struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
}

// loader type-checks module packages from source. Imports of module
// packages resolve to a cached GoFiles-only compilation (so test-only
// imports cannot introduce cycles); everything else falls through to
// the standard library's source importer, which reads GOROOT.
//
// An external test package's loader (see forXTest) sees the package
// under test with its in-package test files, as the go command builds
// it: it type-checks again every module package that imports the one
// under test, and takes the rest from base.
type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPkg
	std    types.Importer
	cache  map[string]*loadResult
	base   *loader
	under  string
}

type loadResult struct {
	pkg *types.Package
	err error
}

func newLoader(fset *token.FileSet, listed map[string]*listedPkg) *loader {
	return &loader{
		fset:   fset,
		listed: listed,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*loadResult),
	}
}

// forXTest returns the loader for the external tests of the package at
// path, whose test-augmented compilation is pkg.
func (ld *loader) forXTest(path string, pkg *types.Package) *loader {
	return &loader{
		fset:   ld.fset,
		listed: ld.listed,
		std:    ld.std,
		cache:  map[string]*loadResult{path: {pkg: pkg}},
		base:   ld,
		under:  path,
	}
}

// Import implements types.Importer for the dependency graph.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	info, ok := ld.listed[path]
	if !ok {
		return ld.std.Import(path)
	}
	if ld.base != nil && path != ld.under && !slices.Contains(info.Deps, ld.under) {
		return ld.base.Import(path)
	}
	return ld.loadModule(info)
}

// loadModule type-checks (once) the non-test compilation of a module
// package, for use as an import.
func (ld *loader) loadModule(info *listedPkg) (*types.Package, error) {
	if r, ok := ld.cache[info.ImportPath]; ok {
		if r == nil {
			return nil, fmt.Errorf("import cycle through %s", info.ImportPath)
		}
		return r.pkg, r.err
	}
	ld.cache[info.ImportPath] = nil // in-progress marker
	files, err := ld.parse(info.Dir, info.GoFiles)
	var pkg *types.Package
	if err == nil {
		conf := &types.Config{Importer: ld}
		pkg, err = conf.Check(info.ImportPath, ld.fset, files, nil)
	}
	ld.cache[info.ImportPath] = &loadResult{pkg: pkg, err: err}
	return pkg, err
}

func (ld *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one unit, the named files of dir as package path,
// and runs the analyzers over it.
func (ld *loader) check(path, dir string, names []string, analyzers []*analysis.Analyzer) (*types.Package, []string, error) {
	files, err := ld.parse(dir, names)
	if err != nil {
		return nil, nil, err
	}
	info := newTypesInfo()
	conf := &types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	includesTests := slices.ContainsFunc(names, func(n string) bool { return strings.HasSuffix(n, "_test.go") })
	diags, err := runAnalyzers(ld.fset, files, pkg, info, includesTests, analyzers)
	return pkg, diags, err
}

// RunStandalone loads every package of the module in the working
// directory, type-checks each with its in-package test files and then
// its external test package, runs the analyzers over both, and returns
// formatted diagnostics.
func RunStandalone(analyzers []*analysis.Analyzer) ([]string, error) {
	pkgs, err := goList()
	if err != nil {
		return nil, err
	}
	listed := make(map[string]*listedPkg, len(pkgs))
	for _, p := range pkgs {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: the driver does not support cgo packages", p.ImportPath)
		}
		listed[p.ImportPath] = p
	}
	ld := newLoader(token.NewFileSet(), listed)

	var all []string
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	for _, p := range pkgs {
		pkg, diags, err := ld.check(p.ImportPath, p.Dir, slices.Concat(p.GoFiles, p.TestGoFiles), analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		_, diags, err = ld.forXTest(p.ImportPath, pkg).check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

func goList() ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %w", err)
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list -json: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
