// Command gflink-bench regenerates the tables and figures of the
// GFlink paper's evaluation on the simulated testbed.
//
// Usage:
//
//	gflink-bench -list
//	gflink-bench -exp fig5a,table2
//	gflink-bench -all [-md results.md] [-trace out.json]
//
// Every experiment runs at its own fixed data scale, so the tables are
// the same on every run; EXPERIMENTS.md's Full results are the -all
// output.
//
// -trace additionally records every deployment's span stream and writes
// one Chrome trace_event JSON file (open it at chrome://tracing or
// https://ui.perfetto.dev). All span timestamps come from the virtual
// clock, so the file is byte-identical across runs and GOMAXPROCS
// values.
//
// -check runs each experiment's pinned-shape check. A failing check
// still writes the -trace and -md files, then exits nonzero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gflink/internal/bench"
	"gflink/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in;
// it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gflink-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list   = fs.Bool("list", false, "list experiments and exit")
		expIDs = fs.String("exp", "", "comma-separated experiment IDs to run")
		all    = fs.Bool("all", false, "run every experiment")
		mdPath = fs.String("md", "", "also write results as markdown to this file")
		check  = fs.Bool("check", false, "run each experiment's pinned-shape check and exit nonzero on regression")
		trace  = fs.String("trace", "", "write a Chrome trace_event JSON of every run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var exps []*bench.Experiment
	switch {
	case *all:
		exps = bench.All()
	case *expIDs != "":
		// Resolve every ID before running anything, so a typo fails
		// fast instead of after the experiments before it.
		for _, id := range strings.Split(*expIDs, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	default:
		fmt.Fprintln(stderr, "nothing to do: pass -all, -exp or -list")
		fs.Usage()
		return 2
	}

	var md strings.Builder
	var failed bool
	var procs []obs.TraceProcess
	md.WriteString("# GFlink reproduction results\n\n")
	for _, e := range exps {
		var t *bench.Table
		if *trace != "" {
			var ps []obs.TraceProcess
			t, ps = bench.RunTraced(e)
			procs = append(procs, ps...)
		} else {
			t = e.Run()
		}
		fmt.Fprintln(stdout, t.String())
		md.WriteString(t.Markdown())
		if *check {
			if e.Check == nil {
				fmt.Fprintf(stdout, "check %s: no pinned-shape check\n\n", e.ID)
			} else if err := e.Check(t); err != nil {
				fmt.Fprintln(stderr, "check failed:", err)
				failed = true
			} else {
				fmt.Fprintf(stdout, "check %s: ok\n\n", e.ID)
			}
		}
	}
	// The requested outputs are written even when a check failed: they
	// are what debugging the failure needs.
	if *trace != "" {
		data, err := obs.ChromeTrace(procs...)
		if err != nil {
			fmt.Fprintln(stderr, "building trace:", err)
			return 1
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			fmt.Fprintln(stderr, "trace failed schema validation:", err)
			return 1
		}
		if err := os.WriteFile(*trace, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "writing trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d events from %d runs)\n", *trace, strings.Count(string(data), `"ph"`), len(procs))
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "writing markdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *mdPath)
	}
	if failed {
		return 1
	}
	return 0
}
