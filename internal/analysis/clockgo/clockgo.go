// Package clockgo flags bare go statements in simulator packages.
//
// The virtual clock (internal/vclock) advances only when every
// registered process is blocked on a vclock primitive. A goroutine
// spawned with a bare go statement is invisible to that census: the
// clock may advance while the rogue goroutine still runs, yielding
// schedules that depend on host scheduling — or the simulation may
// deadlock-panic because the goroutine's work was never counted.
// Simulator code must spawn concurrency through (*vclock.Clock).Go (or
// Group.Go), which registers the process with the scheduler.
//
// vclock needs no go statement of its own: it runs every process as a
// coroutine resumed from Run's goroutine. The one deliberate go
// statement left is bench.RunPoints, which fans independent sweep
// points (each with its own clock) out across OS threads; such sites
// are annotated //gflink:allow-go, which this analyzer honours on the
// go statement's line or the line above.
package clockgo

import (
	"go/ast"

	"gflink/internal/analysis"
)

// Analyzer implements the clockgo check.
var Analyzer = &analysis.Analyzer{
	Name: "clockgo",
	Doc:  "flag bare go statements in simulator packages; spawn processes with (*vclock.Clock).Go so the virtual clock tracks them (suppress with //gflink:allow-go)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if analysis.DirectiveAt(idx, pass.Fset, "allow-go", g.Pos()) {
				return true
			}
			pass.Reportf(g.Pos(), "bare go statement in a simulator package; use (*vclock.Clock).Go so the virtual clock tracks the process, or annotate with //gflink:allow-go")
			return true
		})
	}
	return nil, nil
}
