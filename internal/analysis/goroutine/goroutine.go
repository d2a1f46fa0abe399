// Package goroutine forbids bare go statements and hand-made coroutines
// in the deterministic simulation packages (sim, simnet, server,
// coordinator, client, core).
//
// The simulator is cooperatively scheduled: sim.Engine.Go makes each
// proc a runtime coroutine (iter.Pull) that the event loop switches into
// and that switches back when it parks, so exactly one of them runs at a
// time and simulated interleaving is a function of the event heap, not of
// the OS scheduler. A raw go statement bypasses that handoff — its writes
// race the engine and its timing varies run to run — and an iter.Pull
// outside the engine is a second scheduler whose switches the event queue
// never ordered.
//
// The legitimate sites are exempted by file in package scope (the engine,
// for iter.Pull only) or, for the cross-scenario worker pool in core's
// Runner, carry an //rcvet:allow goroutine justification. Anything new
// must either go through sim.Engine.Go or document why OS-level
// concurrency cannot perturb simulated time. Test files are exempt (race
// hammers drive the pool from plain goroutines on purpose).
package goroutine

import (
	"go/ast"
	"go/types"

	"ramcloud/internal/analysis/framework"
	"ramcloud/internal/analysis/scope"
)

// Analyzer is the goroutine check.
var Analyzer = &framework.Analyzer{
	Name: "goroutine",
	Doc:  "forbid bare go statements and iter.Pull coroutines in deterministic simulation packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !scope.SingleThreaded(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if scope.TestFile(filename) {
			continue
		}
		// The engine's procs are the one sanctioned use of coroutines
		// (see scope.ProcScheduler).
		pullAllowed := scope.ProcScheduler(pass.Pkg.Path(), filename)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "bare go statement in a deterministic package bypasses the engine's cooperative scheduler; spawn procs with sim.Engine.Go, or annotate //rcvet:allow goroutine <why>")
			case *ast.SelectorExpr:
				if !pullAllowed && isIterPull(pass, n) {
					pass.Reportf(n.Pos(), "iter.%s creates a coroutine the event loop does not schedule; spawn procs with sim.Engine.Go, or annotate //rcvet:allow goroutine <why>", n.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// isIterPull reports whether sel names iter.Pull or iter.Pull2 of the
// standard library, under whatever name the file imports package iter.
func isIterPull(pass *framework.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Pull" && sel.Sel.Name != "Pull2" {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "iter"
}
