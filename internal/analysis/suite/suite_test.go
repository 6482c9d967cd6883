package suite_test

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gflink/internal/analysis"
	"gflink/internal/analysis/suite"
	"gflink/internal/analysis/wallclock"
)

// TestSuiteHasFourAnalyzers pins the suite's composition: the lexical
// check of DESIGN.md "Concurrency & lifetime invariants" (wallclock,
// whose ban table includes map ranges), the two observability
// analyzers that enforce invariants 8–9 (clockflow, outputpurity), and
// poolsafe, which owns HBuffer lifetimes and zero-copy views for
// invariants 4 and 7. Invariant 10 is measured by allocation budgets.
func TestSuiteHasFourAnalyzers(t *testing.T) {
	var names []string
	for _, a := range suite.Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{
		"wallclock",
		"clockflow", "outputpurity",
		"poolsafe",
	}
	if !slices.Equal(names, want) {
		t.Errorf("suite analyzers = %q, want %q", names, want)
	}
}

// TestSuiteCoversPlanLayer pins the scoping rules to the deferred plan
// layer: every analyzer must apply to gflink/internal/plan, since the
// planner's chaining pass and Either nodes sit directly on the
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

// moduleLoader is the one loader the whole-module tests share, so the
// packages one of them type-checks are cached for the other.
var moduleLoader = sync.OnceValues(func() (*analysis.Loader, error) { return analysis.NewLoader(".") })

// TestRepositoryIsClean runs the full gflink-vet suite over the module
// (test files included), so `go test ./...` fails the moment a
// determinism, no-mutex or buffer-lifecycle violation lands.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short mode")
	}
	l, err := moduleLoader()
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

// TestLoaderCoversGoList holds the loader's package set to the go
// command's: "./..." from the module root expands to exactly what `go
// list ./...` lists there and in benchmark/, a module of its own under
// the root, and every package with external test files gets its
// external _test package loaded with it.
func TestLoaderCoversGoList(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every external test package from source; skipped in -short mode")
	}
	l, err := moduleLoader()
	if err != nil {
		t.Fatal(err)
	}
	xtests := make(map[string]int)
	var want []string
	for _, dir := range []string{l.ModuleRoot(), filepath.Join(l.ModuleRoot(), "benchmark")} {
		cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list", "-f", "{{.ImportPath}} {{len .XTestGoFiles}}", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, count, _ := strings.Cut(line, " ")
			n, err := strconv.Atoi(count)
			if err != nil {
				t.Fatalf("go list line %q: %v", line, err)
			}
			want = append(want, path)
			xtests[path] = n
		}
	}
	targets, err := l.Expand([]string{l.ModulePath() + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tgt := range targets {
		got = append(got, tgt[1])
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Expand(./...) = %q\nwant the go list set %q", got, want)
	}
	for _, tgt := range targets {
		if xtests[tgt[1]] == 0 {
			continue
		}
		pkg, err := l.Load(tgt[0], tgt[1], true)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.XTest == nil {
			t.Errorf("%s has %d external test file(s) but loaded no %s_test", tgt[1], xtests[tgt[1]], tgt[1])
		}
	}
}
