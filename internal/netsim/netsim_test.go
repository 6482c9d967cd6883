package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

func TestTransferDuration(t *testing.T) {
	c := vclock.New()
	m := costmodel.DefaultNet
	var n *Network
	end := c.Run(func() {
		n = New(c, m, 4)
		n.Transfer(0, 1, 125_000_000) // 1 Gbit at 1 Gbps = 1 s + latency
	})
	want := m.TransferTime(125_000_000)
	if end != want {
		t.Errorf("transfer took %v, want %v", end, want)
	}
	tr, by := n.Stats()
	if tr != 1 || by != 125_000_000 {
		t.Errorf("stats = %d transfers, %d bytes", tr, by)
	}
}

func TestSameNodeTransferIsFree(t *testing.T) {
	c := vclock.New()
	end := c.Run(func() {
		n := New(c, costmodel.DefaultNet, 2)
		n.Transfer(1, 1, 1<<30)
	})
	if end != 0 {
		t.Errorf("local transfer cost %v", end)
	}
}

func TestUplinkContentionSerializes(t *testing.T) {
	c := vclock.New()
	m := costmodel.DefaultNet
	end := c.Run(func() {
		n := New(c, m, 3)
		g := vclock.NewGroup(c)
		// Two transfers from node 0 to different receivers share 0's
		// uplink and must serialize.
		g.Go("a", func() { n.Transfer(0, 1, 125_000_000) })
		g.Go("b", func() { n.Transfer(0, 2, 125_000_000) })
		g.Wait()
	})
	if want := 2 * m.TransferTime(125_000_000); end != want {
		t.Errorf("contended makespan %v, want %v", end, want)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	c := vclock.New()
	m := costmodel.DefaultNet
	end := c.Run(func() {
		n := New(c, m, 4)
		g := vclock.NewGroup(c)
		g.Go("a", func() { n.Transfer(0, 1, 125_000_000) })
		g.Go("b", func() { n.Transfer(2, 3, 125_000_000) })
		g.Wait()
	})
	if want := m.TransferTime(125_000_000); end != want {
		t.Errorf("parallel makespan %v, want %v", end, want)
	}
}

func TestOpposingTransfersFullDuplex(t *testing.T) {
	c := vclock.New()
	m := costmodel.DefaultNet
	end := c.Run(func() {
		n := New(c, m, 2)
		g := vclock.NewGroup(c)
		g.Go("a", func() { n.Transfer(0, 1, 125_000_000) })
		g.Go("b", func() { n.Transfer(1, 0, 125_000_000) })
		g.Wait()
	})
	if want := m.TransferTime(125_000_000); end != want {
		t.Errorf("full-duplex makespan %v, want %v (no overlap)", end, want)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	c := vclock.New()
	end := c.Run(func() {
		n := New(c, costmodel.DefaultNet, 2)
		n.Transfer(0, 1, 0)
		n.Transfer(0, 1, -7)
	})
	if end != time.Duration(0) {
		t.Errorf("zero-byte transfer cost %v", end)
	}
}

func TestBadNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	c := vclock.New()
	c.Run(func() {
		n := New(c, costmodel.DefaultNet, 2)
		n.Transfer(0, 5, 100)
	})
}

// contend runs three transfers that contend for links: a and b share
// node 0's uplink, a and c share node 1's downlink. task[i] runs
// transfer i as a vclock task through Xfer, and as a process through
// Transfer otherwise. It returns the order and virtual times at which
// the transfers finished, and the network's Stats.
func contend(task [3]bool) (log []string, transfers, bytes int64) {
	c := vclock.New()
	n := New(c, costmodel.DefaultNet, 3)
	specs := [3]struct {
		name     string
		src, dst int
		bytes    int64
	}{
		{"a", 0, 1, 50_000_000},
		{"b", 0, 2, 20_000_000},
		{"c", 2, 1, 30_000_000},
	}
	for i, sp := range specs {
		done := func() { log = append(log, fmt.Sprintf("%s@%v", sp.name, c.Now())) }
		if !task[i] {
			c.Go(sp.name, func() {
				n.Transfer(sp.src, sp.dst, sp.bytes)
				done()
			})
			continue
		}
		var x Xfer
		var t *vclock.Task
		started := false
		t = c.Spawn(sp.name, func() {
			if !started {
				started = true
				x.Start(n, sp.src, sp.dst, sp.bytes)
			}
			if !x.Step(t) {
				return
			}
			done()
			t.Exit()
		})
	}
	c.Run(func() {})
	transfers, bytes = n.Stats()
	return log, transfers, bytes
}

// TestXferMatchesTransfer: a task's Xfer takes the links in the order a
// process's Transfer does, so with tasks and processes contending for
// the same uplink and downlink, every mix finishes in the order, at the
// times and with the Stats of three processes.
func TestXferMatchesTransfer(t *testing.T) {
	want, wantN, wantB := contend([3]bool{})
	if len(want) != 3 || wantN != 3 || wantB != 100_000_000 {
		t.Fatalf("processes: log %v, stats %d transfers, %d bytes", want, wantN, wantB)
	}
	for mask := 1; mask < 8; mask++ {
		task := [3]bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		got, n, b := contend(task)
		if !slices.Equal(got, want) || n != wantN || b != wantB {
			t.Errorf("tasks %v: log %v, stats %d/%d; processes: log %v, stats %d/%d", task, got, n, b, want, wantN, wantB)
		}
	}
}

// TestXferInPlace: a same-node or empty Xfer touches no link and
// completes in the step that started it, without advancing time.
func TestXferInPlace(t *testing.T) {
	c := vclock.New()
	n := New(c, costmodel.DefaultNet, 2)
	var task *vclock.Task
	task = c.Spawn("local", func() {
		for _, tr := range [][3]int64{{1, 1, 1 << 30}, {0, 1, 0}, {0, 1, -7}} {
			var x Xfer
			x.Start(n, int(tr[0]), int(tr[1]), tr[2])
			if !x.Step(task) {
				t.Errorf("Xfer %v parked", tr)
				return
			}
		}
		task.Exit()
	})
	end := c.Run(func() {})
	if tr, by := n.Stats(); end != 0 || tr != 0 || by != 0 {
		t.Errorf("in-place transfers took %v and counted %d transfers, %d bytes", end, tr, by)
	}
}
