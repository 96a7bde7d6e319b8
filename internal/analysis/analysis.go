// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary, sized for this repo's
// needs, and the home of the vetactive suite: five analyzers that
// machine-check the concurrency and determinism invariants the
// middleware relies on but the compiler cannot see.
//
//   - detsim: simulation determinism (internal/simnet, internal/vclock
//     and packages annotated //vetactive:deterministic);
//   - actoronly: actor-loop confinement;
//   - frozenmut: frozen event immutability;
//   - atomicstats: racy stats snapshots;
//   - wirecomplete: wire-registry completeness.
//
// TestModuleAnalyzers (module_test.go) runs them over every package of
// the module, tests included, through the standalone driver
// (internal/analysis/driver), so `go test ./...` fails on a finding.
// The module deliberately has no external dependencies, so the suite
// carries its own Analyzer/Pass types, driver and fixture runner
// (internal/analysis/analysistest) built purely on the standard
// library's go/ast, go/parser, go/token and go/types.
//
// Differences from x/tools are intentional and simplifying: analyzers
// are package-local (no fact export/import between packages), there is
// no requires-graph between analyzers, and suppression is a source
// annotation rather than a driver flag:
//
//	//vetactive:ignore <analyzer> <reason>
//
// placed on the diagnostic's line or the line immediately above it
// silences one analyzer at that site. The reason is mandatory — a bare
// ignore is itself reported. Further annotations consumed by individual
// analyzers: //vetactive:deterministic (detsim scope),
// //vetactive:actoronly and //vetactive:actorloop (actoronly roles),
// //vetactive:xmlfallback (wirecomplete codec exemption).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Prefix starts every vetactive source annotation.
const Prefix = "//vetactive:"

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore
	// annotations. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package unit and reports
	// diagnostics through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass holds one analyzed package unit: its syntax, its type
// information, and the report sink. A unit is a package with its
// in-package _test.go files, or its external test package (the units
// `go vet` type-checks).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// IncludesTests reports whether the unit contains _test.go files.
	// Checks that inspect test coverage (e.g. wirecomplete's Fuzz
	// cross-check) only fire on test-augmented units so the plain and
	// augmented compilations of one package don't double-report.
	IncludesTests bool
	// Report delivers one diagnostic. The driver wraps it with the
	// //vetactive:ignore suppression filter.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Directive is one //vetactive: annotation found in source.
type Directive struct {
	Pos  token.Pos
	Text string // everything after the prefix, e.g. "ignore detsim sorted below"
}

// Directives extracts every vetactive annotation from a file, in
// source order. Both standalone comments and trailing same-line
// comments are seen (the parser must have kept comments).
func Directives(file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, Prefix) {
				out = append(out, Directive{Pos: c.Pos(), Text: strings.TrimSpace(c.Text[len(Prefix):])})
			}
		}
	}
	return out
}

// PkgAnnotated reports whether any file of the unit carries the given
// bare annotation (e.g. "deterministic").
func PkgAnnotated(files []*ast.File, name string) bool {
	for _, f := range files {
		for _, d := range Directives(f) {
			if d.Text == name || strings.HasPrefix(d.Text, name+" ") {
				return true
			}
		}
	}
	return false
}

// FuncAnnotated reports whether fn's doc comment carries the given
// annotation (e.g. "actoronly"). Directive comments are attached to the
// doc group by the parser even though go/doc hides them from rendered
// documentation.
func FuncAnnotated(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, Prefix) {
			continue
		}
		text := strings.TrimSpace(c.Text[len(Prefix):])
		if text == name || strings.HasPrefix(text, name+" ") {
			return true
		}
	}
	return false
}

// An IgnoreIndex resolves //vetactive:ignore annotations to the lines
// they suppress. Drivers consult it before emitting a diagnostic.
type IgnoreIndex struct {
	fset *token.FileSet
	// byLine maps file:line to the analyzers ignored on that line.
	byLine map[string][]ignoreEntry
	// malformed collects ignore annotations missing analyzer or reason.
	malformed []Diagnostic
}

type ignoreEntry struct {
	analyzer string
	used     bool
}

// NewIgnoreIndex scans the unit's files for ignore annotations.
func NewIgnoreIndex(fset *token.FileSet, files []*ast.File) *IgnoreIndex {
	idx := &IgnoreIndex{fset: fset, byLine: make(map[string][]ignoreEntry)}
	for _, f := range files {
		for _, d := range Directives(f) {
			rest, ok := strings.CutPrefix(d.Text, "ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				idx.malformed = append(idx.malformed, Diagnostic{
					Pos:     d.Pos,
					Message: "malformed //vetactive:ignore: want \"//vetactive:ignore <analyzer> <reason>\"",
				})
				continue
			}
			pos := fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			idx.byLine[key] = append(idx.byLine[key], ignoreEntry{analyzer: fields[0]})
		}
	}
	return idx
}

// Ignored reports whether a diagnostic from the named analyzer at pos
// is suppressed by an ignore annotation on the same line or the line
// immediately above.
func (idx *IgnoreIndex) Ignored(pos token.Pos, analyzer string) bool {
	p := idx.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		key := fmt.Sprintf("%s:%d", p.Filename, line)
		entries := idx.byLine[key]
		for i := range entries {
			if entries[i].analyzer == analyzer {
				entries[i].used = true
				return true
			}
		}
	}
	return false
}

// Malformed returns diagnostics for ignore annotations that are missing
// the analyzer name or the reason.
func (idx *IgnoreIndex) Malformed() []Diagnostic { return idx.malformed }

// ReceiverType resolves the named type of a method's receiver, looking
// through pointers. Returns nil for functions and unresolvable
// receivers.
func ReceiverType(info *types.Info, fn *ast.FuncDecl) *types.Named {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedOf unwraps pointers and aliases to the underlying named type,
// or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}
