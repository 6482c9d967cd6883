package counts

// Count exports count to the external test package.
func (t *Table) Count(key string) int { return t.count(key) }

// Counts exposes the table's map to the external test package.
func (t *Table) Counts() map[string]int { return t.n }
