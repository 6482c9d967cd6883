package bench

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the Full results section of EXPERIMENTS.md from the code")

const (
	resultsDoc     = "../../EXPERIMENTS.md"
	resultsHeading = "\n## Full results\n\n"
)

// TestResultsGolden pins EXPERIMENTS.md's Full results to the code: the
// section body must equal every experiment's Markdown rendering in
// All() order, byte for byte. After a change that moves a result on
// purpose, rewrite the section with `make results` (this test with
// -update) and re-derive the scorecard from it.
func TestResultsGolden(t *testing.T) {
	// Experiments share no simulated state (every deployment owns its
	// clock), so the ones no earlier test ran go side by side, one per
	// OS thread.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, e := range All() {
		wg.Add(1)
		//gflink:allow-go host-side fan-out over experiments; each deployment runs its own isolated clock
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			table(e)
			<-sem
		}()
	}
	wg.Wait()
	var b strings.Builder
	for _, e := range All() {
		b.WriteString(runExp(t, e.ID).Markdown())
	}
	got := b.String()

	raw, err := os.ReadFile(resultsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, resultsHeading)
	if start < 0 {
		t.Fatalf("%s has no %q section", resultsDoc, strings.TrimSpace(resultsHeading))
	}
	start += len(resultsHeading)
	end := len(doc)
	if i := strings.Index(doc[start:], "\n## "); i >= 0 {
		end = start + i + 1
	}
	want := doc[start:end]

	if got == want {
		return
	}
	if *update {
		if err := os.WriteFile(resultsDoc, []byte(doc[:start]+got+doc[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the Full results of %s", resultsDoc)
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	var g, w string
	if i < len(gl) {
		g = gl[i]
	}
	if i < len(wl) {
		w = wl[i]
	}
	t.Fatalf("%s:%d differs from the code (run `make results` if the change is intended):\n- doc:  %q\n+ code: %q",
		resultsDoc, strings.Count(doc[:start], "\n")+1+i, w, g)
}
