package driver_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"github.com/gloss/active/internal/analysis"
	"github.com/gloss/active/internal/analysis/driver"
)

// callsBad reports every call of a function or method named Bad.
var callsBad = &analysis.Analyzer{
	Name: "callsbad",
	Doc:  "reports every call of a function or method named Bad",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Bad" {
						pass.Reportf(sel.Sel.Pos(), "call of Bad")
					}
				}
				return true
			})
		}
		return nil
	},
}

// TestExternalTestPackageAnalysed runs the driver over a fixture module
// whose package p has in-package tests, an export_test.go and an
// external test package that reaches p both directly and through q,
// which imports p. Both test units are analysed, and the external one
// type-checks against p with its export_test.go.
func TestExternalTestPackageAnalysed(t *testing.T) {
	t.Chdir("testdata/xtest")
	diags, err := driver.RunStandalone([]*analysis.Analyzer{callsBad})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/p_test.go:5:", "p/x_test.go:12:"}
	if len(diags) != len(want) {
		t.Fatalf("diagnostics = %q, want one at each of %q", diags, want)
	}
	for i, d := range diags {
		if !strings.Contains(d, want[i]) || !strings.HasSuffix(d, "callsbad: call of Bad") {
			t.Errorf("diagnostic %d = %q, want callsbad at %s", i, d, want[i])
		}
	}
}
