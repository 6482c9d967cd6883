package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gflink/internal/bench"
)

// TestFailedCheckStillWritesOutputs forces fig8a's check to fail and
// requires the trace and markdown files to be written before the
// nonzero exit: they are what debugging a failed check needs.
func TestFailedCheckStillWritesOutputs(t *testing.T) {
	e, ok := bench.ByID("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	check := e.Check
	e.Check = func(*bench.Table) error { return errors.New("forced failure") }
	defer func() { e.Check = check }()

	dir := t.TempDir()
	tracePath, mdPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "results.md")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig8a", "-check", "-trace", tracePath, "-md", mdPath}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "check failed: forced failure") {
		t.Errorf("stderr does not report the failed check:\n%s", stderr.String())
	}
	for _, path := range []string{tracePath, mdPath} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s not written after the failed check: %v", filepath.Base(path), err)
		}
	}
}

// TestUnknownExperimentFailsBeforeRunning passes a valid ID before an
// unknown one: the command must reject the list without running fig8a
// and without writing the markdown file.
func TestUnknownExperimentFailsBeforeRunning(t *testing.T) {
	mdPath := filepath.Join(t.TempDir(), "results.md")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig8a,bogus", "-md", mdPath}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exit status 0 for an unknown experiment")
	}
	if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr does not name the unknown experiment:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an experiment ran before the unknown ID was rejected; stdout:\n%s", stdout.String())
	}
	if _, err := os.Stat(mdPath); err == nil {
		t.Error("markdown written despite the unknown experiment")
	}
}
