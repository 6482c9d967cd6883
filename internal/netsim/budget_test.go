package netsim

import (
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// TestXferAllocatesNothing pins one transfer, its Start and every Step
// phase (both links, the wire time, the releases), at zero heap
// allocations (DESIGN.md invariant 10). The root process drives it
// through Transfer while a task transfers over the same uplink, so the
// two take turns waiting for the link.
func TestXferAllocatesNothing(t *testing.T) {
	c := vclock.New()
	n := New(c, costmodel.Default().Net, 3)
	stop := false
	var x Xfer
	var peer *vclock.Task
	var allocs float64
	c.Run(func() {
		peer = c.Spawn("peer", func() {
			for {
				if !x.Step(peer) {
					return
				}
				if stop {
					peer.Exit()
					return
				}
				x.Start(n, 0, 2, 1<<20)
			}
		})
		one := func() { n.Transfer(0, 1, 1<<20) }
		for i := 0; i < 64; i++ {
			one()
		}
		allocs = testing.AllocsPerRun(1000, one)
		stop = true
	})
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per transfer, want 0", allocs)
	}
	if transfers, _ := n.Stats(); transfers < 2*1000 {
		t.Fatalf("%d transfers, want the peer's beside each of the root's", transfers)
	}
}
