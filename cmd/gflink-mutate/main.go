// Command gflink-mutate is the repository's mutation driver. It copies
// the module to a temporary directory and, for each mutant table beside
// this file (every *.json, in name order), applies one of its mutants
// at a time, runs the tests the table names, and prints whether each
// mutant was killed and by which tests. A mutant is one exact textual
// rewrite of one file; it must apply exactly once. Two tables:
//
//   - mutants.json: allocations on the allocation-free hot paths
//     (DESIGN.md invariant 10), killed by the allocation budgets.
//   - copy-mutants.json: byte writes where an opt-in feature acts
//     (column projection, the host tier; invariants 9 and 11), killed
//     by semantic tests; its pattern names no golden byte pin.
//
// Usage (from the module root):
//
//	gflink-mutate
//
// Exit status: 0 when every mutant is killed, 1 when one survives, 2 on
// an operational error (a mutant that does not apply or does not
// build, or a table whose tests fail before any mutant is applied).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// table is the mutant table's file format.
type table struct {
	// Run is the go test -run pattern, over ./internal/..., of the
	// tests that must kill every mutant of the table.
	Run     string   `json:"run"`
	Mutants []mutant `json:"mutants"`
}

// mutant replaces Old, which must occur exactly once in File (a path
// relative to the module root), with New. Each row of the table also
// names, for its reader, the function it rewrites ("func") and what
// the rewrite does ("breaks").
type mutant struct {
	ID   string `json:"id"`
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gflink-mutate:", err)
		return 2
	}
	paths, err := filepath.Glob("cmd/gflink-mutate/*.json")
	if err != nil || len(paths) == 0 {
		return fail(fmt.Errorf("no mutant table in cmd/gflink-mutate (%v)", err))
	}
	dir, err := os.MkdirTemp("", "gflink-mutate-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	if err := copyModule(".", dir); err != nil {
		return fail(err)
	}
	status := 0
	for _, path := range paths {
		var tab table
		raw, err := os.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(raw, &tab); err != nil {
			return fail(fmt.Errorf("%s: %v", path, err))
		}
		fmt.Fprintln(stdout, path)
		killed, err := runTable(stdout, stderr, dir, tab)
		if err != nil {
			return fail(fmt.Errorf("%s: %v", path, err))
		}
		fmt.Fprintf(stdout, "%d of %d mutants killed\n", killed, len(tab.Mutants))
		if killed < len(tab.Mutants) {
			status = 1
		}
	}
	return status
}

// runTable applies each of tab's mutants to the module copy in dir,
// runs the table's tests, prints the verdict and returns how many
// mutants were killed.
func runTable(stdout, stderr io.Writer, dir string, tab table) (int, error) {
	// The unmutated copy must pass every test.
	if failed, out, err := runTests(dir, tab); err != nil || len(failed) > 0 {
		stderr.Write(out)
		return 0, fmt.Errorf("the unmutated module fails %v (%v)", failed, err)
	}
	killed := 0
	for _, m := range tab.Mutants {
		file := filepath.Join(dir, m.File)
		orig, err := os.ReadFile(file)
		if err != nil {
			return killed, err
		}
		if n := bytes.Count(orig, []byte(m.Old)); n != 1 {
			return killed, fmt.Errorf("mutant %s: its text occurs %d times in %s, want once", m.ID, n, m.File)
		}
		if err := os.WriteFile(file, bytes.Replace(orig, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
			return killed, err
		}
		failed, out, terr := runTests(dir, tab)
		if err := os.WriteFile(file, orig, 0o644); err != nil {
			return killed, err
		}
		if terr != nil && len(failed) == 0 {
			stderr.Write(out)
			return killed, fmt.Errorf("mutant %s: %v", m.ID, terr)
		}
		verdict := "survived"
		if len(failed) > 0 {
			verdict = "killed"
			killed++
		}
		fmt.Fprintf(stdout, "%-32s %-8s %s\n", m.ID, verdict, strings.Join(failed, ", "))
	}
	return killed, nil
}

// copyModule copies the module tree at src into dst, leaving out
// hidden directories (version control, build outputs).
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != src && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		to := filepath.Join(dst, p)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// runTests runs the table's tests in dir and returns the failing ones,
// leaving out a parent test when one of its subtests is listed. err is
// set when go test fails; with no failing test listed that means the
// package did not build.
func runTests(dir string, tab table) (failed []string, out []byte, err error) {
	cmd := exec.Command("go", "test", "-count=1", "-json", "-run", tab.Run, "./internal/...")
	cmd.Dir = dir
	out, err = cmd.CombinedOutput()
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Test string }
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Action == "fail" && ev.Test != "" {
			failed = append(failed, ev.Test)
		}
	}
	var leaves []string
	for _, t := range failed {
		if !slices.ContainsFunc(failed, func(u string) bool { return strings.HasPrefix(u, t+"/") }) {
			leaves = append(leaves, t)
		}
	}
	return leaves, out, err
}
