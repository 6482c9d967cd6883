// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6) plus the ablation studies DESIGN.md calls out.
// Each Experiment runs the relevant workloads on a simulated deployment
// matching the paper's testbed (10 slave nodes, 4 CPU cores + 2 Tesla
// C2050 per node unless the experiment says otherwise) and renders the
// same rows/series the paper reports.
//
// Reported times are virtual seconds from the simulation's cost models;
// the claims under reproduction are the *shapes* (who wins, by what
// rough factor, how the factor moves), recorded per experiment in the
// notes and checked in the tests.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Table is one experiment's rendered result.
type Table struct {
	ID     string
	Title  string
	Paper  string // the shape the paper reports
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a formatted observation line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "*Paper shape:* %s\n\n", t.Paper)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note:* %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Experiment regenerates one paper artifact. Each experiment fixes its
// own real-data scale divisor, so Run always renders the same table;
// EXPERIMENTS.md's Full results are that table set.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func() *Table
	// Check validates a rendered table against the experiment's pinned
	// shape (nil = no machine check). The bench CLI's -check flag runs
	// it so CI can fail on simulated-time regressions.
	Check func(t *Table) error
}

// registry holds the experiments in registration order.
var registry []*Experiment

// register installs an experiment; duplicate IDs panic.
func register(e *Experiment) {
	if _, dup := ByID(e.ID); dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry = append(registry, e)
}

// ByID resolves an experiment.
func ByID(id string) (*Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// All returns every experiment sorted by ID.
func All() []*Experiment {
	out := slices.Clone(registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// secs formats a duration as seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

// parseSeconds parses a cell secs rendered, for Check functions.
func parseSeconds(cell string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q is not seconds: %w", cell, err)
	}
	return v, nil
}

// ratio formats a speedup.
func ratio(x float64) string { return fmt.Sprintf("%.2fx", x) }
