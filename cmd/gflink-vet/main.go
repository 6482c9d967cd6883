// Command gflink-vet runs the repository's three custom static analyzers
// (wallclock, the observability check clockflow, and poolsafe, which
// owns HBuffer lifetimes and zero-copy views) over the module. See
// DESIGN.md "Concurrency & lifetime invariants" for what each enforces
// and why `go test -race` cannot.
//
// Usage:
//
//	gflink-vet [-json] [packages]   # packages default to ./...
//
// Patterns are directories ("./...", "./internal/core") or import
// paths of the module that holds the working directory
// ("gflink/internal/..."). The tool type-checks them from source, with
// their in-package test files and each directory's external _test
// package, and needs no build cache.
//
// Findings go to stderr as "file:line:column: analyzer: message".
// With -json they go to stdout instead, one JSON object per line with
// the keys file, line, column, analyzer and message; file is relative
// to the working directory, so CI can turn each line into a
// source-anchored annotation.
//
// Exit status: 0 clean, 1 on any finding, 2 on an operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gflink/internal/analysis"
	"gflink/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it vets the packages args name and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gflink-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOutput := fs.Bool("json", false, "print findings as newline-delimited JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs := fs.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "gflink-vet:", err)
		return 2
	}
	findings, err := analysis.Run(l, pkgs, suite.Rules())
	if err != nil {
		fmt.Fprintln(stderr, "gflink-vet:", err)
		return 2
	}
	relativize(findings)
	if *jsonOutput {
		enc := json.NewEncoder(stdout)
		for _, f := range findings {
			enc.Encode(jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stderr, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relativize rewrites finding paths relative to the working directory,
// so CI annotations are stable across checkouts.
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

// jsonFinding is the -json wire format: one diagnostic per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}
