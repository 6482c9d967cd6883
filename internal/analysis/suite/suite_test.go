package suite_test

import (
	"slices"
	"testing"

	"gflink/internal/analysis"
	"gflink/internal/analysis/suite"
)

// TestSuiteHasSevenAnalyzers pins the suite's composition: the three
// lexical/interprocedural checks of DESIGN.md "Concurrency & lifetime
// invariants" (wallclock, maporder, bufescape), the two observability
// analyzers that enforce invariants 8–9 (clockflow, outputpurity), and
// the two allocation-discipline analyzers that enforce invariant 10
// (hotalloc, and poolsafe, which also owns HBuffer lifetimes for
// invariant 4).
func TestSuiteHasSevenAnalyzers(t *testing.T) {
	var names []string
	for _, a := range suite.Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{
		"wallclock", "maporder", "bufescape",
		"clockflow", "outputpurity",
		"hotalloc", "poolsafe",
	}
	if !slices.Equal(names, want) {
		t.Errorf("suite analyzers = %q, want %q", names, want)
	}
}

// TestSuiteCoversPlanLayer pins the scoping rules to the deferred plan
// layer: every analyzer must apply to gflink/internal/plan, since the
// planner's chaining and placement passes sit directly on the
// determinism and buffer-lifecycle invariants the suite enforces.
func TestSuiteCoversPlanLayer(t *testing.T) {
	for _, r := range suite.Rules() {
		if r.Applies != nil && !r.Applies("gflink/internal/plan") {
			t.Errorf("analyzer %q does not apply to gflink/internal/plan", r.Analyzer.Name)
		}
	}
}

// TestSuiteCoversObsLayer pins the scoping rules to the observability
// layer: every analyzer must apply to gflink/internal/obs, because obs
// carries invariant #8 — span timestamps come only from the virtual
// clock — and the wallclock analyzer is what enforces it there.
func TestSuiteCoversObsLayer(t *testing.T) {
	for _, r := range suite.Rules() {
		if r.Applies != nil && !r.Applies("gflink/internal/obs") {
			t.Errorf("analyzer %q does not apply to gflink/internal/obs", r.Analyzer.Name)
		}
	}
}

// TestSuiteCoversTransferChannel pins the scoping rules to every
// package the column-projection transfer path touches: gstruct column
// sets, the gpu field-use registry and range copies, the cost model's
// projected-H2D estimate, core's projected inputs and the
// workloads/bench drivers. All of them sit on the determinism and
// buffer-lifecycle invariants, so every analyzer must apply.
func TestSuiteCoversTransferChannel(t *testing.T) {
	for _, pkg := range []string{
		"gflink/internal/gstruct",
		"gflink/internal/gpu",
		"gflink/internal/core",
		"gflink/internal/costmodel",
		"gflink/internal/workloads",
		"gflink/internal/bench",
	} {
		for _, r := range suite.Rules() {
			if r.Applies != nil && !r.Applies(pkg) {
				t.Errorf("analyzer %q does not apply to %s", r.Analyzer.Name, pkg)
			}
		}
	}
}

// TestRepositoryIsClean runs the full gflink-vet suite over the module
// (test files included), so `go test ./...` fails the moment a
// determinism, no-mutex or buffer-lifecycle violation lands.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short mode")
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(l, []string{l.ModulePath() + "/..."}, suite.Rules())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
