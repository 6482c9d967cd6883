// Package analysis is a self-contained re-implementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library.
//
// The module deliberately has no external dependencies (the simulator
// must build hermetically), so instead of importing x/tools this package
// provides the same Analyzer/Pass/Diagnostic contract plus a loader
// (load.go) and a driver (driver.go) able to type-check the module from
// source. Analyzers written against it are source-compatible with the
// x/tools API for the subset they use, so they could be lifted onto the
// real framework if the dependency ever becomes available.
//
// The three production analyzers live in the subpackages wallclock,
// clockflow and poolsafe; cmd/gflink-vet wires them into a
// multichecker via the suite subpackage. The flow-sensitive two
// (poolsafe, clockflow) share the CFG/dataflow core in cfg.go and
// scope.go: per-function control-flow graphs with panic edges, a
// generic forward worklist solver, reaching definitions, one
// function-scope builder and one forward may-solver. See DESIGN.md
// "Concurrency & lifetime invariants" for the invariants they enforce.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// command line. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// summary by the multichecker's usage message.
	Doc string

	// Run applies the analyzer to one package. It may report
	// diagnostics via pass.Report/Reportf. The result value is unused
	// by this driver (kept for x/tools API compatibility).
	Run func(*Pass) (interface{}, error)

	// FactTypes lists the fact types the analyzer exports and imports
	// (see facts.go). A non-empty FactTypes marks the analyzer as
	// interprocedural: the driver then runs it over module-internal
	// dependencies of the requested packages too (facts only, no
	// diagnostics) so cross-package facts are available when dependents
	// are analyzed.
	FactTypes []Fact
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report emits one finding.
	Report func(Diagnostic)

	// facts is the run-wide store backing the Export/ImportObjectFact
	// methods; nil when the driver runs without fact support.
	facts *FactStore
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf emits a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}
