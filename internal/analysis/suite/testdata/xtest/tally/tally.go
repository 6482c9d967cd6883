// Package tally depends on counts, so an external test of counts that
// imports it needs tally checked against counts' test variant.
package tally

import "xtest/counts"

// Of counts every key once.
func Of(keys ...string) *counts.Table {
	t := counts.New()
	for _, k := range keys {
		t.Add(k)
	}
	return t
}
