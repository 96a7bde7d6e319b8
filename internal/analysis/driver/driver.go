// Package driver runs analyzers over every package of a module. `go list
// -deps -test -export` names the units `go vet` would hand a vet tool —
// each package with its in-package _test.go files, and its external test
// package (package p_test) on its own — and the export data of every
// package they import, test-augmented variants included. Each unit is
// type-checked from source against that export data, its imports
// resolved through its ImportMap as the compiler resolved them.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
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

// listedPkg is the slice of `go list -json` output the driver needs.
type listedPkg struct {
	Dir         string
	ImportPath  string // "p [p.test]" for a variant built for p's tests
	ForTest     string
	Export      string
	GoFiles     []string // a test variant's include its _test.go files
	CgoFiles    []string
	TestGoFiles []string
	ImportMap   map[string]string // source import path → ImportPath, where they differ
	DepOnly     bool
}

// listFields are the listedPkg fields asked of go list.
const listFields = "Dir,ImportPath,ForTest,Export,GoFiles,CgoFiles,TestGoFiles,ImportMap,DepOnly"

// isUnit reports whether p is analysed: a package of the module, as its
// tests build it when it has in-package tests, or its external test
// package — not a dependency, and not a generated test main.
func (p *listedPkg) isUnit() bool {
	switch {
	case p.DepOnly:
		return false
	case p.ForTest != "":
		return true
	default:
		return len(p.TestGoFiles) == 0 && !strings.HasSuffix(p.ImportPath, ".test")
	}
}

// path is p's import path without a test variant's suffix.
func (p *listedPkg) path() string {
	path, _, _ := strings.Cut(p.ImportPath, " ")
	return path
}

// RunStandalone lists every package of the module in the working
// directory, type-checks each with its in-package test files and then
// its external test package, runs the analyzers over both, and returns
// formatted diagnostics.
func RunStandalone(analyzers []*analysis.Analyzer) ([]string, error) {
	pkgs, err := goList()
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var units []*listedPkg
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
		if !p.isUnit() {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: the driver does not support cgo packages", p.ImportPath)
		}
		units = append(units, p)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].path() < units[j].path() })
	fset := token.NewFileSet()
	var all []string
	for _, p := range units {
		diags, err := check(fset, p, exports, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// check type-checks one unit against its imports' export data and runs
// the analyzers over it.
func check(fset *token.FileSet, p *listedPkg, exports map[string]string, analyzers []*analysis.Analyzer) ([]string, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	gc := importer.ForCompiler(fset, "gc", func(id string) (io.ReadCloser, error) {
		if exports[id] == "" {
			return nil, fmt.Errorf("no export data for %s", id)
		}
		return os.Open(exports[id])
	})
	conf := &types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if id, ok := p.ImportMap[path]; ok {
			path = id
		}
		return gc.Import(path)
	})}
	info := newTypesInfo()
	pkg, err := conf.Check(p.path(), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	includesTests := slices.ContainsFunc(p.GoFiles, func(n string) bool { return strings.HasSuffix(n, "_test.go") })
	return runAnalyzers(fset, files, pkg, info, includesTests, analyzers)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
	cmd := exec.Command("go", "list", "-deps", "-test", "-export", "-json="+listFields, "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %w", err)
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list -json: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
