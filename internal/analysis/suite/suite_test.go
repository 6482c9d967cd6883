package suite_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gflink/internal/analysis"
	"gflink/internal/analysis/suite"
	"gflink/internal/analysis/wallclock"
)

// TestSuiteHasSixAnalyzers pins the suite's composition: the two
// lexical/interprocedural checks of DESIGN.md "Concurrency & lifetime
// invariants" (wallclock, whose ban table includes map ranges, and
// bufescape), the two observability analyzers that enforce invariants
// 8–9 (clockflow, outputpurity), and the two allocation-discipline
// analyzers that enforce invariant 10 (hotalloc, and poolsafe, which
// also owns HBuffer lifetimes for invariant 4).
func TestSuiteHasSixAnalyzers(t *testing.T) {
	var names []string
	for _, a := range suite.Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{
		"wallclock", "bufescape",
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

// TestMapRangeScope pins where the map-range ban applies: every
// package the TestSuiteCovers* tests name, plus the root package, the
// examples and cmd/gflink-bench, but not the analysis framework, the
// vet command or the benchmark harness.
func TestMapRangeScope(t *testing.T) {
	applies := func(path string) bool {
		for _, r := range suite.Rules() {
			if r.Analyzer == wallclock.Analyzer {
				return (r.Applies == nil || r.Applies(path)) && wallclock.MapRangeBanned(path)
			}
		}
		t.Fatal("wallclock is not in the suite")
		return false
	}
	for _, pkg := range []string{
		"gflink",
		"gflink/internal/plan",
		"gflink/internal/obs",
		"gflink/internal/gstruct",
		"gflink/internal/gpu",
		"gflink/internal/core",
		"gflink/internal/costmodel",
		"gflink/internal/workloads",
		"gflink/internal/bench",
		"gflink/internal/vclock",
		"gflink/internal/stream",
		"gflink/internal/stream_test",
		"gflink/examples/kmeans",
		"gflink/examples/quickstart",
		"gflink/examples/spmv",
		"gflink/examples/streaming",
		"gflink/examples/wordcount",
		"gflink/cmd/gflink-bench",
	} {
		if !applies(pkg) {
			t.Errorf("map-range ban does not apply to %s", pkg)
		}
	}
	for _, pkg := range []string{
		"gflink/internal/analysis",
		"gflink/internal/analysis/suite",
		"gflink/internal/analysis/wallclock",
		"gflink/cmd/gflink-vet",
		"gflink/benchmark",
	} {
		if applies(pkg) {
			t.Errorf("map-range ban applies to %s", pkg)
		}
	}
}

// TestExternalTestPackageIsChecked runs the suite over a fixture module
// whose package has an external test package with a map range. The
// range is reported, so the external test was type-checked and
// analyzed. It calls a method from the package's in-package test file
// on a value from another package that imports the package under test,
// which type-checks only if both see the same test variant.
func TestExternalTestPackageIsChecked(t *testing.T) {
	l, err := analysis.NewLoader("testdata/xtest")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(l, []string{"./testdata/xtest/..."}, suite.Rules())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer))
	}
	if want := []string{"counts_test.go:11: wallclock"}; !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
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
