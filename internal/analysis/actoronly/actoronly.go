// Package actoronly turns the broker's "single-writer actor
// discipline" comments into a checked property. Functions annotated
//
//	//vetactive:actoronly
//
// (broker state mutators: subscription/advert tables, index add/drop,
// shed decisions) may only be called from actor context: another
// actor-only function, a function annotated //vetactive:actorloop (an
// actor root — the dispatch loop itself, or a harness that *is* the
// actor goroutine), or a callback registered with the endpoint
// (Handle, After, Do, OnDrain arguments run on the actor loop).
//
// Flagged: calls from unannotated functions, calls from function
// literals launched with `go` or handed to a worker pool — exactly the
// paths a worker goroutine or gossip tick would take into actor state.
//
// The check is package-local (vetactive analyzers exchange no facts
// across packages): cross-package callers of exported actor-only
// methods remain a documented contract, and _test.go files are exempt
// because the test harness goroutine is the actor by construction.
package actoronly

import (
	"go/ast"
	"go/types"

	"github.com/gloss/active/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "actoronly",
	Doc:  "calls to //vetactive:actoronly functions must stay on the actor-loop call graph",
	Run:  run,
}

// registrars are methods whose function-literal arguments execute on
// the actor loop: endpoint handler registration, virtual-clock timers,
// the transport's actor-hop, and backpressure drain callbacks.
var registrars = map[string]bool{
	"Handle": true, "After": true, "Do": true, "OnDrain": true,
}

func run(pass *analysis.Pass) error {
	// First pass: classify this package's declared functions.
	actorOnly := make(map[types.Object]*ast.FuncDecl) // protected callees
	actorCtx := make(map[types.Object]bool)           // allowed callers
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if analysis.FuncAnnotated(fd, "actoronly") {
				actorOnly[obj] = fd
				actorCtx[obj] = true
			}
			if analysis.FuncAnnotated(fd, "actorloop") {
				actorCtx[obj] = true
			}
		}
	}
	if len(actorOnly) == 0 {
		return nil
	}

	// Second pass: walk every function body tracking whether the
	// current context is actor context, and flag calls that leave it.
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			walk(pass, fd.Body, actorOnly, actorCtx, actorCtx[obj], fd.Name.Name)
		}
	}
	return nil
}

// walk inspects one body with a known actor-context flag, recursing
// into function literals with the context their bodies will execute
// under. Argument *evaluation* always inherits the caller's context;
// only literal *bodies* change context: registrar callbacks
// (Handle/After/Do/OnDrain) and callbacks handed to actor-context
// functions run on the actor loop, goroutine bodies never do.
func walk(pass *analysis.Pass, node ast.Node, actorOnly map[types.Object]*ast.FuncDecl,
	actorCtx map[types.Object]bool, inActor bool, where string) {

	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A spawned goroutine is never actor context, even inside an
			// actor-only function.
			if callee := calleeObj(pass, n.Call); callee != nil && actorOnly[callee] != nil {
				pass.Reportf(n.Pos(), "go statement launches actor-only %s on a new goroutine", calleeName(callee))
			}
			goWhere := where + " (goroutine)"
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				walk(pass, lit.Body, actorOnly, actorCtx, false, goWhere)
			}
			for _, arg := range n.Call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					walk(pass, lit.Body, actorOnly, actorCtx, false, goWhere)
				} else {
					walk(pass, arg, actorOnly, actorCtx, inActor, where)
				}
			}
			return false
		case *ast.CallExpr:
			if callee := calleeObj(pass, n); callee != nil && actorOnly[callee] != nil && !inActor {
				pass.Reportf(n.Pos(), "call to actor-only %s from %s, which is not actor context (annotate it //vetactive:actoronly or //vetactive:actorloop, or route through the actor loop)",
					calleeName(callee), where)
			}
			argCtx := false
			argWhere := where
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && registrars[sel.Sel.Name] {
				argCtx = true
				argWhere = "a " + sel.Sel.Name + " callback"
			} else if callee := calleeObj(pass, n); callee != nil && actorCtx[callee] {
				argCtx = true
				argWhere = "a callback of " + calleeName(callee)
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately invoked literal runs inline.
				walk(pass, lit.Body, actorOnly, actorCtx, inActor, where)
			} else {
				walk(pass, n.Fun, actorOnly, actorCtx, inActor, where)
			}
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					walk(pass, lit.Body, actorOnly, actorCtx, argCtx, argWhere)
				} else {
					walk(pass, arg, actorOnly, actorCtx, inActor, where)
				}
			}
			return false
		case *ast.FuncLit:
			// Not a call argument (assigned to a variable, returned,
			// stored in a struct): assume it runs in the enclosing
			// context.
			walk(pass, n.Body, actorOnly, actorCtx, inActor, where)
			return false
		}
		return true
	})
}

// calleeObj resolves the called function's declaration object, for
// plain and method calls.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func calleeName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			if named := analysis.NamedOf(recv.Type()); named != nil {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}
