// Package dep keeps HBuffers; its retention reaches importers only
// through exported Retains facts.
package dep

import "gflink/internal/membuf"

var kept []*membuf.HBuffer

// Keep stores b; its parameter is retained.
func Keep(b *membuf.HBuffer) { kept = append(kept, b) }

// Size only reads b; not retained.
func Size(b *membuf.HBuffer) int { return b.Size() }
