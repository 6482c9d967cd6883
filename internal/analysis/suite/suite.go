// Package suite assembles the gflink-vet analyzer suite and its
// package-scoping rules, shared by cmd/gflink-vet and the self-check
// test that keeps the repository clean.
package suite

import (
	"gflink/internal/analysis"
	"gflink/internal/analysis/bufescape"
	"gflink/internal/analysis/clockflow"
	"gflink/internal/analysis/counterkey"
	"gflink/internal/analysis/hotalloc"
	"gflink/internal/analysis/lockorder"
	"gflink/internal/analysis/maporder"
	"gflink/internal/analysis/outputpurity"
	"gflink/internal/analysis/poolsafe"
	"gflink/internal/analysis/wallclock"
)

// Rules returns the production analyzer suite of nine analyzers.
//
//   - wallclock (wall-clock time sources and bare go statements) and
//     maporder guard every simulator package under gflink/internal
//     (the public API and examples only assemble configurations, but
//     the internal packages are where virtual time and result ordering
//     live).
//   - lockorder (blocking calls under a held mutex, and lock order
//     cycles) runs module-wide. Per-deployment state has no mutex (the
//     virtual clock runs one process at a time), so it checks the
//     process-global locks that remain.
//   - bufescape and poolsafe (HBuffer views and lifetimes, plus
//     //gflink:pool values) run module-wide except internal/membuf,
//     which constructs, destroys, and aliases HBuffer storage by
//     definition and declares no //gflink:pool source.
//   - the flow-sensitive observability analyzers (clockflow,
//     counterkey) and outputpurity run module-wide: they fire only on
//     calls into the obs/core recording APIs or on //gflink:gated
//     code, so an unrestricted scope costs nothing outside those and
//     catches misuse wherever it appears (clockflow and counterkey
//     skip _test.go files themselves — fixtures pin literal
//     timestamps and probe counters by design).
//   - hotalloc runs module-wide too: it fires only on
//     //gflink:hotpath annotations (invariant 10), so unannotated
//     packages cost nothing.
//
// maporder, lockorder, bufescape, clockflow, counterkey, hotalloc and
// poolsafe carry fact types, so the driver also runs them over
// module-internal dependencies of the requested packages (facts only)
// before analyzing the targets.
func Rules() []analysis.Rule {
	internal := analysis.Under("gflink/internal")
	return []analysis.Rule{
		{Analyzer: wallclock.Analyzer, Applies: internal},
		{Analyzer: maporder.Analyzer, Applies: internal},
		{Analyzer: lockorder.Analyzer},
		{Analyzer: bufescape.Analyzer, Applies: analysis.Except(nil, "gflink/internal/membuf")},
		{Analyzer: clockflow.Analyzer},
		{Analyzer: counterkey.Analyzer},
		{Analyzer: outputpurity.Analyzer},
		{Analyzer: hotalloc.Analyzer},
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
