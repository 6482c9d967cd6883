package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// inFixture runs the test from the external-test fixture module, whose
// one finding is a map range in counts' external test package; run
// roots its loader and relativizes paths at the working directory.
func inFixture(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../../internal/analysis/suite/testdata/xtest"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFindingExitsOne checks the -json format CI's annotation step
// parses: one object per finding and line, with exactly the keys file,
// line, column, analyzer and message, and file relative to the working
// directory. Without -json the finding goes to stderr instead.
func TestFindingExitsOne(t *testing.T) {
	inFixture(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("-json printed %d lines, want 1:\n%s", len(lines), stdout.String())
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"analyzer", "column", "file", "line", "message"}; !slices.Equal(keys, want) {
		t.Errorf("keys = %q, want %q", keys, want)
	}
	if got["file"] != "counts/counts_test.go" || got["line"] != 11.0 || got["analyzer"] != "wallclock" {
		t.Errorf("finding = %s, want wallclock at counts/counts_test.go:11", lines[0])
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d without -json, want 1", code)
	}
	if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "counts/counts_test.go:11:") {
		t.Errorf("without -json: stdout %q, stderr %q; want the finding on stderr only", stdout.String(), stderr.String())
	}
}

// TestCleanPackageExitsZero vets a package with no findings.
func TestCleanPackageExitsZero(t *testing.T) {
	inFixture(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./tally"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

// TestOperationalErrorExitsTwo passes a pattern the loader cannot
// resolve (a standard-library path) and an unknown flag.
func TestOperationalErrorExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"fmt"}, {"-baseline", "x.json", "./..."}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
	}
}
