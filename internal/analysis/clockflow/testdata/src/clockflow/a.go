// Fixture for the clockflow analyzer: obs timestamp arguments must be
// vclock-derived on every path.
package clockflow

import (
	"time"

	"clockflow/dep"

	"gflink/internal/obs"
	"gflink/internal/vclock"
)

func good(tr *obs.Tracer, c *vclock.Clock) {
	t0 := c.Now()
	tr.Record("t", "c", "n", t0, c.Now()+5*time.Millisecond)
}

func wallDirect(tr *obs.Tracer, epoch time.Time) {
	tr.Record("t", "c", "n",
		time.Since(epoch), // want `wall-clock`
		time.Since(epoch)) // want `wall-clock`
}

func literalStamp(tr *obs.Tracer) {
	tr.Record("t", "c", "n",
		5*time.Millisecond, // want `compile-time constant`
		time.Duration(42))  // want `compile-time constant`
}

func mixedBranch(tr *obs.Tracer, c *vclock.Clock, epoch time.Time, cond bool) {
	t := c.Now()
	if cond {
		t = time.Since(epoch)
	}
	tr.Record("t", "c", "n",
		t, // want `wall-clock`
		t) // want `wall-clock`
}

func zeroJoinOK(tr *obs.Tracer, c *vclock.Clock, cond bool) {
	// A zero-initialized timestamp overwritten by a clock reading on
	// some path is fine: zero is the virtual epoch, not host time.
	var t time.Duration
	if cond {
		t = c.Now()
	}
	tr.Record("t", "c", "n", t, t)
}

func arithmeticTaint(tr *obs.Tracer, c *vclock.Clock, epoch time.Time) {
	tr.Record("t", "c", "n",
		c.Now()+time.Since(epoch), // want `wall-clock`
		c.Now())
}

func fieldReadsTrusted(tr *obs.Tracer, c *vclock.Clock, r obs.WorkReport) {
	// Struct fields are opaque: their producers carry the obligation.
	start := c.Now()
	tr.Record("t", "c", "n", start, start+r.H2D)
}

func viaHelper(tr *obs.Tracer, c *vclock.Clock, epoch time.Time) {
	dep.Stamp(tr, c.Now())
	dep.Stamp(tr,
		time.Since(epoch)) // want `wall-clock`
	dep.Stamp(tr,
		3*time.Second) // want `compile-time constant`
}

func viaSource(tr *obs.Tracer, c *vclock.Clock) {
	tr.Record("t", "c", "n", dep.Reading(c), dep.Reading(c))
}

// startCarried is the span idiom: read the clock when the interval
// opens, carry the reading across the work (a loop and a branch here),
// and hand it to Record when the interval closes.
func startCarried(tr *obs.Tracer, c *vclock.Clock, n int, cond bool) {
	t0 := c.Now()
	for i := 0; i < n; i++ {
		if cond {
			c.Sleep(time.Millisecond)
		}
	}
	tr.Record("t", "c", "n", t0, c.Now())
}

func startLiteral(tr *obs.Tracer, c *vclock.Clock, n int, cond bool) {
	t0 := time.Millisecond
	for i := 0; i < n; i++ {
		if cond {
			c.Sleep(time.Millisecond)
		}
	}
	tr.Record("t", "c", "n",
		t0, // want `compile-time constant`
		c.Now())
}

func startWall(tr *obs.Tracer, c *vclock.Clock, epoch time.Time, n int, cond bool) {
	t0 := time.Since(epoch)
	for i := 0; i < n; i++ {
		if cond {
			c.Sleep(time.Millisecond)
		}
	}
	tr.Record("t", "c", "n",
		t0, // want `wall-clock`
		c.Now())
}

func localStamp(tr *obs.Tracer, t time.Duration) {
	tr.Record("t", "c", "n", t, t)
}

func callsLocal(tr *obs.Tracer, epoch time.Time) {
	localStamp(tr,
		time.Since(epoch)) // want `wall-clock`
}

func inClosure(tr *obs.Tracer, c *vclock.Clock, epoch time.Time) func() {
	return func() {
		end := c.Now()
		tr.Record("t", "c", "n", end-time.Millisecond, end)
		tr.Record("t", "c", "n",
			time.Since(epoch), // want `wall-clock`
			end)
	}
}

func waived(tr *obs.Tracer) {
	tr.Record("t", "c", "replay", 0, time.Millisecond) //gflink:vclock-derived -- replaying a recorded schedule
}
