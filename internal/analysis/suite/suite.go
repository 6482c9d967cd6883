// Package suite assembles the gflink-vet analyzer suite and its
// package-scoping rules, shared by cmd/gflink-vet and the self-check
// test that keeps the repository clean.
package suite

import (
	"gflink/internal/analysis"
	"gflink/internal/analysis/clockflow"
	"gflink/internal/analysis/outputpurity"
	"gflink/internal/analysis/poolsafe"
	"gflink/internal/analysis/wallclock"
)

// Rules returns the production analyzer suite of four analyzers.
//
//   - wallclock (wall-clock time sources, bare go statements, map
//     ranges and mutexes) runs module-wide except the gflink/benchmark
//     module, the harness that measures host time on purpose.
//     Per-deployment state needs no mutex (the virtual clock runs one
//     process at a time), so none may appear anywhere in the
//     simulator, cmd/, examples/ or the root package. Its map-range
//     row also skips the analysis framework and cmd/gflink-vet
//     (wallclock.MapRangeBanned).
//   - poolsafe (buffer ownership: HBuffer lifetimes and zero-copy
//     views, plus //gflink:pool values) runs module-wide except
//     internal/membuf, which constructs, destroys, and aliases HBuffer
//     storage by definition and declares no //gflink:pool source.
//   - the flow-sensitive observability analyzer clockflow and
//     outputpurity run module-wide: they fire only on calls into the
//     obs/core recording APIs or on //gflink:gated code, so an
//     unrestricted scope costs nothing outside those and catches
//     misuse wherever it appears (clockflow skips _test.go files
//     itself — fixtures pin literal timestamps by design).
//
// Allocation-free hot paths (invariant 10) are held by run-time
// allocation budgets, not by an analyzer.
//
// clockflow and poolsafe carry fact types, so the driver
// also runs them over module-internal dependencies of the requested
// packages (facts only) before analyzing the targets.
func Rules() []analysis.Rule {
	benchmark := analysis.Under("gflink/benchmark")
	return []analysis.Rule{
		{Analyzer: wallclock.Analyzer, Applies: func(path string) bool { return !benchmark(path) }},
		{Analyzer: clockflow.Analyzer},
		{Analyzer: outputpurity.Analyzer},
		{Analyzer: poolsafe.Analyzer, Applies: analysis.Except(nil, "gflink/internal/membuf")},
	}
}

// Analyzers returns the suite's analyzers in rule order.
func Analyzers() []*analysis.Analyzer {
	var as []*analysis.Analyzer
	for _, r := range Rules() {
		as = append(as, r.Analyzer)
	}
	return as
}
