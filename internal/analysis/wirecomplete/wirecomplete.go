// Package wirecomplete cross-checks the wire registry against the
// binary codec and the fuzz house style:
//
//   - every kind passed to a Registry.Register call must implement the
//     binary fast path — both AppendWire and ParseWire — or carry an
//     explicit //vetactive:xmlfallback annotation (on the registration
//     line, or on the enclosing registration function's doc) declaring
//     it intentionally XML-only; exactly one of the pair is always an
//     error;
//   - the XML codec's optional hand-written pair is all or nothing too:
//     a type that declares exactly one of AppendXML and ParseXML either
//     writes frames only the reflection decoder reads or scans a form
//     nothing writes, and the differential tests that hold the pair to
//     encoding/xml need both halves;
//   - so is the binary tail pair (wire.TailMessage): a type with only
//     one of AppendWireHead and WireTail is not a tail message, so its
//     frames silently copy the bytes the other half was written to lend;
//   - a ControlMessage marker (a Control() bool method) must return
//     the constant true: the outbox budget exemption is consulted at
//     encode time by both codecs, so a value-dependent Control would
//     let the same message be exempt under one codec and dropped under
//     the other;
//   - a package that defines decoders (ParseWire methods for the binary
//     codec, ParseXML methods for the XML one) must also carry a Fuzz*
//     target in its tests — the coverage style the storage and
//     knowledge planes established — or annotate the first decoder of
//     each family with //vetactive:ignore wirecomplete <where the
//     coverage lives>. This check runs only on test-augmented units, so
//     the plain and test compilations of a package don't double-report.
//
// Matching is name-based (a named type Registry with a Register
// method), keeping the analyzer free of cross-package facts and
// letting fixtures stub the registry surface.
package wirecomplete

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/gloss/active/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wirecomplete",
	Doc:  "registered wire kinds need a binary AppendWire/ParseWire pair (or a declared XML fallback), a whole AppendXML/ParseXML and AppendWireHead/WireTail pair or none, constant Control markers, and fuzzed decoders",
	Run:  run,
}

// decoderFamilies are the decoder method names that oblige a package to
// carry a fuzz target, with how the diagnostic describes them.
var decoderFamilies = []struct{ method, what string }{
	{"ParseWire", "binary decoders"},
	{"ParseXML", "XML scanners"},
}

func run(pass *analysis.Pass) error {
	firstDecoder := make(map[string]*ast.FuncDecl)
	haveFuzz := false
	checkedControl := make(map[types.Object]bool)

	for _, file := range pass.Files {
		inTest := pass.InTestFile(file.Pos())
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "Fuzz") && fuzzShaped(pass, fd) {
				haveFuzz = true
			}
			if inTest {
				continue
			}
			if fd.Recv != nil {
				switch name := fd.Name.Name; name {
				case "ParseWire", "ParseXML":
					if firstDecoder[name] == nil {
						firstDecoder[name] = fd
					}
				}
				checkPair(pass, fd)
			}
			fallback := analysis.FuncAnnotated(fd, "xmlfallback")
			if fd.Body != nil {
				checkRegistrations(pass, file, fd, fallback, checkedControl)
			}
		}
	}

	for _, fam := range decoderFamilies {
		if fd := firstDecoder[fam.method]; fd != nil && pass.IncludesTests && !haveFuzz {
			pass.Reportf(fd.Pos(),
				"package %s defines %s (%s) but its tests have no Fuzz* target; add one or annotate this decoder //vetactive:ignore wirecomplete <where the fuzz coverage lives>",
				pass.Pkg.Name(), fam.what, fam.method)
		}
	}
	return nil
}

// pairs maps each method of an all-or-nothing pair to its other half: the
// XML codec's hand-written pair and the binary codec's tail pair.
var pairs = map[string]string{"AppendXML": "ParseXML", "ParseXML": "AppendXML", "AppendWireHead": "WireTail", "WireTail": "AppendWireHead"}

// checkPair reports a method that is one half of a pair on a type that
// lacks the other half.
func checkPair(pass *analysis.Pass, fd *ast.FuncDecl) {
	half := fd.Name.Name
	missing, ok := pairs[half]
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	named := analysis.NamedOf(fn.Type().(*types.Signature).Recv().Type())
	if named == nil || types.NewMethodSet(types.NewPointer(named)).Lookup(nil, missing) != nil {
		return
	}
	pass.Reportf(fd.Pos(), "%s implements %s but not %s: the codec takes the pair whole or not at all",
		named.Obj().Name(), half, missing)
}

// fuzzShaped reports whether fd looks like a fuzz target:
// func FuzzX(f *testing.F).
func fuzzShaped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil || fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Type.Params.List[0].Type]
	if !ok {
		return false
	}
	named := analysis.NamedOf(tv.Type)
	return named != nil && named.Obj().Name() == "F"
}

// checkRegistrations inspects one function for Registry.Register calls
// and validates each registered kind.
func checkRegistrations(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl,
	fnFallback bool, checkedControl map[types.Object]bool) {

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Register" {
			return true
		}
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return true
		}
		recvNamed := analysis.NamedOf(recv.Type)
		if recvNamed == nil || recvNamed.Obj().Name() != "Registry" {
			return true
		}
		argType, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok {
			return true
		}
		named := analysis.NamedOf(argType.Type)
		if named == nil {
			return true
		}
		checkKind(pass, file, call, named, fnFallback)
		checkControl(pass, named, checkedControl)
		return true
	})
}

// checkKind validates the binary pair / XML-fallback state of one
// registered kind.
func checkKind(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, named *types.Named, fnFallback bool) {
	ms := types.NewMethodSet(types.NewPointer(named))
	hasAppend := ms.Lookup(nil, "AppendWire") != nil
	hasParse := ms.Lookup(nil, "ParseWire") != nil
	name := named.Obj().Name()
	switch {
	case hasAppend && hasParse:
		return
	case hasAppend != hasParse:
		half, missing := "AppendWire", "ParseWire"
		if hasParse {
			half, missing = "ParseWire", "AppendWire"
		}
		pass.Reportf(call.Pos(), "registered kind %s implements %s but not %s: a half binary codec encodes frames no peer can decode", name, half, missing)
	default:
		if fnFallback || lineAnnotated(pass, file, call, "xmlfallback") {
			return
		}
		pass.Reportf(call.Pos(), "registered kind %s has no binary AppendWire/ParseWire pair; implement it or annotate the registration //vetactive:xmlfallback <reason>", name)
	}
}

// checkControl verifies a registered ControlMessage's marker returns
// the constant true, when its declaration is in this package.
func checkControl(pass *analysis.Pass, named *types.Named, checked map[types.Object]bool) {
	ms := types.NewMethodSet(types.NewPointer(named))
	selControl := ms.Lookup(nil, "Control")
	if selControl == nil {
		return
	}
	fn, ok := selControl.Obj().(*types.Func)
	if !ok || checked[fn] {
		return
	}
	checked[fn] = true
	decl := declOf(pass, fn)
	if decl == nil || decl.Body == nil {
		return
	}
	if len(decl.Body.List) == 1 {
		if ret, ok := decl.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if tv, ok := pass.TypesInfo.Types[ret.Results[0]]; ok && tv.Value != nil && tv.Value.String() == "true" {
				return
			}
		}
	}
	pass.Reportf(decl.Pos(), "%s.Control must return the constant true: both codecs consult it for the outbox budget exemption, so instances must agree", named.Obj().Name())
}

// declOf finds the FuncDecl of a method in the analyzed unit.
func declOf(pass *analysis.Pass, fn *types.Func) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// lineAnnotated reports whether the call's line or the line above
// carries the given bare annotation.
func lineAnnotated(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, name string) bool {
	pos := pass.Fset.Position(call.Pos())
	for _, d := range analysis.Directives(file) {
		if d.Text != name && !strings.HasPrefix(d.Text, name+" ") {
			continue
		}
		dp := pass.Fset.Position(d.Pos)
		if dp.Filename == pos.Filename && (dp.Line == pos.Line || dp.Line == pos.Line-1) {
			return true
		}
	}
	return false
}
