// Package wallclock forbids the three ways host nondeterminism leaks
// into simulator packages, wall-clock time sources, bare go statements
// and ranges over maps, and the one host synchronisation primitive the
// virtual clock makes redundant, the mutex.
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
//
// The virtual clock runs exactly one process at a time, so simulator
// state needs no lock, and a mutex held across a blocking vclock call
// is a circular wait the race detector cannot see. Any use of the types
// sync.Mutex and sync.RWMutex — a field, a variable, an embedding, a
// pointer — is reported, with no waiver directive; sync.WaitGroup and
// sync.Once stay legal.
//
// Go randomizes map iteration order on every range statement, so a map
// range whose body appends, sends, accumulates floats, frees, panics or
// reaches the clock makes two runs of the same binary differ. Rather
// than judge each body, simulator code never ranges over a map: a range
// over an expression whose underlying type is a map, or a type
// parameter whose type terms are all maps, is reported, with no waiver
// directive. Keep the keys in a slice beside the map, in
// insertion order (or sorted), or use a dense slice when the keys are
// small integers. The row skips the analysis framework and the vet
// command (see MapRangeBanned): they are host tools whose map loops
// feed position-sorted findings, not simulated results.
package wallclock

import (
	"fmt"
	"go/ast"
	"go/token"
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
	"After":     "use (*vclock.Clock).Sleep, or vclock.Event to wake a waiter",
	"AfterFunc": "spawn a process with (*vclock.Clock).Go that sleeps, then runs the function",
	"Since":     "subtract (*vclock.Clock).Now values",
	"Until":     "subtract (*vclock.Clock).Now values",
	"NewTimer":  "use (*vclock.Clock).Sleep in a process, or Task.Sleep in a step",
	"NewTicker": "use (*vclock.Clock).Sleep in a process loop",
	"Tick":      "use (*vclock.Clock).Sleep in a process loop",
}

// bannedSync lists the sync types simulator code may not use.
var bannedSync = map[string]bool{"Mutex": true, "RWMutex": true}

// MapRangeBanned reports whether the map-range row applies to the
// package at path: everywhere the analyzer runs except the analysis
// framework and the vet command built on it.
func MapRangeBanned(path string) bool {
	return !analysis.Under("gflink/internal/analysis")(path) && !analysis.Under("gflink/cmd/gflink-vet")(path)
}

// Analyzer implements the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time sources (time.Now, time.Sleep, ...), bare go statements, ranges over maps and sync.Mutex/RWMutex in simulator packages; all time must flow through vclock.Clock, every process through (*vclock.Clock).Go (suppress a go statement with //gflink:allow-go), iteration order through slices, and no state needs a lock",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Collect findings first so reports come out in source order
	// regardless of map iteration order.
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	for id, obj := range pass.TypesInfo.Uses {
		if obj.Pkg() == nil {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if fix, bad := banned[obj.Name()]; bad && obj.Pkg().Path() == "time" {
				found = append(found, finding{id.Pos(), fmt.Sprintf("time.%s is wall-clock and breaks simulation determinism; %s", obj.Name(), fix)})
			}
		case *types.TypeName:
			if bannedSync[obj.Name()] && obj.Pkg().Path() == "sync" {
				found = append(found, finding{id.Pos(), fmt.Sprintf("sync.%s in simulator code: the virtual clock runs one process at a time, so state needs no lock; keep each mutation free of blocking calls instead", obj.Name())})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos, "%s", f.msg)
	}

	banMaps := MapRangeBanned(pass.Pkg.Path())
	for _, f := range pass.Files {
		idx := analysis.DirectiveIndex(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !analysis.DirectiveAt(idx, pass.Fset, "allow-go", n.Pos()) {
					pass.Reportf(n.Pos(), "bare go statement in a simulator package; use (*vclock.Clock).Go so the virtual clock tracks the process, or annotate with //gflink:allow-go")
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); banMaps && t != nil && onlyMaps(t) {
					pass.Reportf(n.Pos(), "range over a map in simulator code: Go randomizes map order; keep the keys in a slice beside the map, or use a dense slice for small integer keys")
				}
			}
			return true
		})
	}
	return nil, nil
}

// onlyMaps reports whether every type t stands for has a map as its
// underlying type: t is a map, or t is a type parameter whose
// constraint's type terms are all maps (its core type is a map). A
// type parameter's Underlying is its constraint interface, whose type
// set is the intersection of its embedded elements, so one element of
// map terms alone is enough; a union needs every term to be maps.
func onlyMaps(t types.Type) bool {
	if u, ok := t.(*types.Union); ok {
		for i := 0; i < u.Len(); i++ {
			if !onlyMaps(u.Term(i).Type()) {
				return false
			}
		}
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if onlyMaps(u.EmbeddedType(i)) {
				return true
			}
		}
	}
	return false
}
