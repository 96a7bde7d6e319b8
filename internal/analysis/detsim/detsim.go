// Package detsim checks determinism-critical packages for the bug
// classes that break bit-identical simulation: wall-clock reads,
// process-seeded randomness, and map-iteration-ordered emission. The
// simulator's contract — same seed, same Metrics, byte-identical event
// streams — is the foundation of the differential tests (XML vs binary
// codecs, the endpoint core against its oracles); one time.Now or
// unsorted map range in the wrong place turns every one of them flaky.
//
// Scope: internal/simnet, internal/vclock, and any package carrying a
// //vetactive:deterministic annotation — internal/netapi does, since its
// endpoint core runs inside the simulated world. _test.go files are
// exempt (the differential tests themselves measure wall time).
//
// Checks:
//   - calls to time.Now, time.Since, time.Until, time.After,
//     time.Tick, time.NewTimer, time.NewTicker, time.AfterFunc —
//     deterministic code must use the virtual clock (vclock.Clock);
//   - calls to the process-seeded global math/rand state (rand.Intn,
//     rand.Float64, ...) — only explicitly seeded generators
//     (rand.New(rand.NewSource(seed))) are allowed;
//   - hash/maphash.MakeSeed — per-process seeds reorder anything keyed
//     by the resulting hash;
//   - ranging over a map where the body sends on a channel, calls an
//     emission method (Send, SendMany, Reply, After, Publish), or
//     appends to a slice declared outside the loop — iteration order is
//     randomized per run, so such loops must iterate a sorted or
//     insertion-ordered mirror instead.
package detsim

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/gloss/active/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detsim",
	Doc:  "forbid wall-clock, global randomness and map-ordered emission in deterministic packages",
	Run:  run,
}

// forbiddenTime are the wall-clock entry points of package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedRand are the constructors of explicitly seeded generators;
// every other package-level math/rand call draws from process-global
// state.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// emitNames are methods whose call inside a map range means the
// iteration order reaches the wire or the schedule.
var emitNames = map[string]bool{
	"Send": true, "SendMany": true, "Reply": true, "After": true, "Publish": true,
}

func run(pass *analysis.Pass) error {
	if !applies(pass) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil
}

func applies(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	if strings.HasSuffix(path, "internal/simnet") || strings.HasSuffix(path, "internal/vclock") {
		return true
	}
	return analysis.PkgAnnotated(pass.Files, "deterministic")
}

// checkCall flags forbidden package-level calls (time.*, global
// math/rand, maphash.MakeSeed).
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch pkgName.Imported().Path() {
	case "time":
		if forbiddenTime[name] {
			pass.Reportf(call.Pos(), "call to time.%s in deterministic package (use the endpoint's virtual clock)", name)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[name] {
			pass.Reportf(call.Pos(), "global math/rand.%s is process-seeded; draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", name)
		}
	case "hash/maphash":
		if name == "MakeSeed" {
			pass.Reportf(call.Pos(), "maphash.MakeSeed is seeded per process; anything ordered by the hash differs between runs")
		}
	}
}

// checkMapRange flags map iterations whose body emits or accumulates
// in iteration order.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside a map range: delivery order follows randomized map iteration (iterate a sorted mirror)")
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && emitNames[sel.Sel.Name] {
				pass.Reportf(n.Pos(), "%s call inside a map range: emission order follows randomized map iteration (iterate a sorted mirror)", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			checkAppend(pass, file, rng, n)
		}
		return true
	})
}

// checkAppend flags `x = append(x, ...)` inside a map range when x
// outlives the loop: the appended order is the (random) iteration
// order. The sorted-mirror idiom — collect keys, sort, then emit — is
// recognized and allowed: an append target later passed to a
// sort/slices call in the same file is exempt.
func checkAppend(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for i, rhs := range assign.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
			continue
		}
		if i >= len(assign.Lhs) {
			continue
		}
		var obj types.Object
		var name string
		switch lhs := assign.Lhs[i].(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[lhs]
			if obj == nil {
				obj = pass.TypesInfo.Defs[lhs]
			}
			name = lhs.Name
			if obj != nil && !declaredOutside(obj.Pos(), rng) {
				continue // loop-local accumulator
			}
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[lhs.Sel]
			name = lhs.Sel.Name
		}
		if obj == nil {
			continue
		}
		if sortedLater(pass, file, obj, rng.End()) {
			continue
		}
		pass.Reportf(assign.Pos(), "append to %s inside a map range accumulates in randomized iteration order (sort before emitting)", name)
	}
}

func declaredOutside(pos token.Pos, rng *ast.RangeStmt) bool {
	return pos < rng.Pos() || pos > rng.End()
}

// sortedLater reports whether obj is passed (anywhere in an argument
// expression) to a sort or slices call after pos — the second half of
// the collect-sort-emit idiom.
func sortedLater(pass *analysis.Pass, file *ast.File, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
