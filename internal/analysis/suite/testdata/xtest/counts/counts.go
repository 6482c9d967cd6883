// Package counts is the package under test of the external-test
// fixture.
package counts

// Table counts occurrences by key.
type Table struct{ n map[string]int }

// New returns an empty table.
func New() *Table { return &Table{n: make(map[string]int)} }

// Add counts key once.
func (t *Table) Add(key string) { t.n[key]++ }

func (t *Table) count(key string) int { return t.n[key] }
