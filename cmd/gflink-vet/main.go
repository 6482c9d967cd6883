// Command gflink-vet runs the repository's six custom static analyzers
// (wallclock, bufescape, plus the observability checks clockflow and
// outputpurity and the allocation-discipline pair hotalloc and
// poolsafe, the latter also owning HBuffer lifetimes) over the module. See DESIGN.md "Concurrency & lifetime
// invariants" for what each enforces and why `go test -race` cannot.
//
// Usage:
//
//	gflink-vet [packages]        # standalone; defaults to ./...
//	go vet -vettool=$(which gflink-vet) ./...   # as a vet tool
//
// Flags (standalone mode):
//
//	-json                  newline-delimited JSON diagnostics on stdout
//	-baseline file         suppress findings recorded in file; exit 1
//	                       only on NEW findings (ratchet for CI)
//	-write-baseline file   write the current findings to file and exit 0
//
// Baseline entries match on (analyzer, file, message) as a multiset —
// line numbers drift with unrelated edits, so they are recorded for
// humans but ignored when matching.
//
// In standalone mode the tool type-checks the module from source
// (including in-package test files) and needs no build cache. When
// invoked by `go vet -vettool` it speaks the vet config protocol
// instead, reusing the export data the go command already built.
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gflink/internal/analysis"
	"gflink/internal/analysis/suite"
)

// jsonOutput selects the machine-readable diagnostic format (-json):
// one JSON object per line on stdout, consumed by CI to turn findings
// into source-anchored annotations.
var jsonOutput bool

func main() {
	args := os.Args[1:]
	// `go vet` probes the tool's identity with -V=full and its flag
	// surface with -flags before handing it unit configs.
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			fmt.Printf("gflink-vet version gflink-vet-2\n")
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}
	var pkgs []string
	var baselinePath, writeBaselinePath string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			jsonOutput = true
		case strings.HasPrefix(a, "-baseline="):
			baselinePath = strings.TrimPrefix(a, "-baseline=")
		case a == "-baseline" && i+1 < len(args):
			i++
			baselinePath = args[i]
		case strings.HasPrefix(a, "-write-baseline="):
			writeBaselinePath = strings.TrimPrefix(a, "-write-baseline=")
		case a == "-write-baseline" && i+1 < len(args):
			i++
			writeBaselinePath = args[i]
		default:
			pkgs = append(pkgs, a)
		}
	}
	if len(pkgs) == 1 && strings.HasSuffix(pkgs[0], ".cfg") {
		runVetTool(pkgs[0]) // go vet -vettool mode
		return
	}
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		fail(err)
	}
	findings, err := analysis.Run(l, pkgs, suite.Rules())
	if err != nil {
		fail(err)
	}
	relativize(findings)
	if writeBaselinePath != "" {
		if err := writeBaseline(writeBaselinePath, findings); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "gflink-vet: wrote %d finding(s) to %s\n", len(findings), writeBaselinePath)
		return
	}
	if baselinePath != "" {
		var suppressed int
		findings, suppressed, err = filterBaseline(baselinePath, findings)
		if err != nil {
			fail(err)
		}
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "gflink-vet: %d baselined finding(s) suppressed\n", suppressed)
		}
	}
	report(findings)
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// relativize rewrites finding paths relative to the working directory,
// so baselines (and CI annotations) are stable across checkouts.
func relativize(findings []analysis.Finding) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range findings {
		if rel, err := filepath.Rel(wd, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// baselineKey is the identity a baseline entry matches on: file and
// message pin the finding, line numbers are allowed to drift.
func baselineKey(analyzer, file, message string) string {
	return analyzer + "\x00" + file + "\x00" + message
}

// writeBaseline records the current findings as a sorted JSON array.
func writeBaseline(path string, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// filterBaseline drops findings covered by the baseline file,
// consuming one baseline entry per match (a multiset: two identical
// known findings suppress exactly two identical new ones).
func filterBaseline(path string, findings []analysis.Finding) ([]analysis.Finding, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("reading baseline: %w", err)
	}
	var known []jsonFinding
	if err := json.Unmarshal(data, &known); err != nil {
		return nil, 0, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	budget := make(map[string]int, len(known))
	for _, k := range known {
		budget[baselineKey(k.Analyzer, k.File, k.Message)]++
	}
	var fresh []analysis.Finding
	suppressed := 0
	for _, f := range findings {
		key := baselineKey(f.Analyzer, f.Pos.Filename, f.Message)
		if budget[key] > 0 {
			budget[key]--
			suppressed++
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh, suppressed, nil
}

// jsonFinding is the -json wire format: one diagnostic per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report prints findings in the selected format: human-readable to
// stderr by default, newline-delimited JSON to stdout under -json.
func report(findings []analysis.Finding) {
	if !jsonOutput {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		enc.Encode(jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gflink-vet:", err)
	os.Exit(2)
}
