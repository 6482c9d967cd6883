package spanpair

import (
	"time"

	"gflink/internal/obs"
)

// rangeBodyEnd ends the span only inside the loop body: a range over an
// empty xs runs no iteration and leaks s.
func rangeBodyEnd(tr *obs.Tracer, xs []int, t0, t1 time.Duration) {
	s := tr.Begin("driver", "plan", "loop", t0) // want "not ended on every path"
	for range xs {
		s.End(t1)
		return
	}
}
