// Package wallclock forbids the two ways host time leaks into simulator
// packages: wall-clock time sources and bare go statements.
//
// Every paper figure the repo reproduces is a deterministic function of
// the virtual clock (internal/vclock): the simulation advances only
// when every process blocks, so schedules are independent of host load,
// GOMAXPROCS and wall time. A single time.Now or time.Sleep smuggled
// into a simulator package reintroduces host nondeterminism that no
// test can reliably catch — runs would differ across machines while
// each individual run looks plausible. This analyzer bans the time
// package's clock-reading and timer functions outright, with no waiver
// directive; time.Duration values and duration constants (the
// cost-model currency) remain legal.
//
// A goroutine spawned with a bare go statement is invisible to the
// clock's census of blocked processes: the clock may advance while the
// rogue goroutine still runs, yielding schedules that depend on host
// scheduling — or the simulation may deadlock-panic because the
// goroutine's work was never counted. Simulator code must spawn
// concurrency through (*vclock.Clock).Go (or Group.Go), which registers
// the process with the scheduler. vclock itself needs no go statement:
// it runs every process as a coroutine resumed from Run's goroutine.
// The one deliberate go statement left is bench.RunPoints, which fans
// independent sweep points (each with its own clock) out across OS
// threads; such sites are annotated //gflink:allow-go, which this
// analyzer honours on the go statement's line or the line above.
package wallclock

import (
	"go/ast"
	"go/types"
	"sort"

	"gflink/internal/analysis"
)

// banned lists the time-package functions that read or wait on the host
// clock. time.Duration arithmetic, ParseDuration and the Duration
// constants are deliberately not listed.
var banned = map[string]string{
	"Now":       "read the virtual clock via (*vclock.Clock).Now",
	"Sleep":     "use (*vclock.Clock).Sleep",
	"After":     "use vclock primitives (Clock.AfterFunc, Deadline)",
	"AfterFunc": "use (*vclock.Clock).AfterFunc",
	"Since":     "subtract (*vclock.Clock).Now values",
	"Until":     "subtract (*vclock.Clock).Now values",
	"NewTimer":  "use vclock.NewDeadline",
	"NewTicker": "use (*vclock.Clock).Sleep in a process loop",
	"Tick":      "use (*vclock.Clock).Sleep in a process loop",
}

// Analyzer implements the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time sources (time.Now, time.Sleep, ...) and bare go statements in simulator packages; all time must flow through vclock.Clock and every process through (*vclock.Clock).Go (suppress a go statement with //gflink:allow-go)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Collect offending idents first so reports come out in source
	// order regardless of map iteration order.
	var ids []*ast.Ident
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if _, bad := banned[fn.Name()]; bad {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Pos() < ids[j].Pos() })
	for _, id := range ids {
		fn := pass.TypesInfo.Uses[id].(*types.Func)
		pass.Reportf(id.Pos(), "time.%s is wall-clock and breaks simulation determinism; %s", fn.Name(), banned[fn.Name()])
	}

	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !analysis.DirectiveAt(idx, pass.Fset, "allow-go", g.Pos()) {
				pass.Reportf(g.Pos(), "bare go statement in a simulator package; use (*vclock.Clock).Go so the virtual clock tracks the process, or annotate with //gflink:allow-go")
			}
			return true
		})
	}
	return nil, nil
}
