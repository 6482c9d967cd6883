// Package netsim models the cluster interconnect: one full-duplex link
// per node (gigabit Ethernet in the paper's testbed). A transfer holds
// the sender's uplink and the receiver's downlink for its duration, so
// concurrent shuffles contend for link capacity deterministically.
package netsim

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// Network is the simulated interconnect between numNodes nodes.
// Node IDs are 0..numNodes-1.
type Network struct {
	clock *vclock.Clock
	model costmodel.Net
	up    []*vclock.Semaphore
	down  []*vclock.Semaphore

	transfers int64
	bytes     int64
}

// New builds a network of numNodes full-duplex links.
func New(clock *vclock.Clock, model costmodel.Net, numNodes int) *Network {
	n := &Network{clock: clock, model: model}
	for i := 0; i < numNodes; i++ {
		n.up = append(n.up, vclock.NewSemaphore(clock, fmt.Sprintf("net-up-%d", i), 1))
		n.down = append(n.down, vclock.NewSemaphore(clock, fmt.Sprintf("net-down-%d", i), 1))
	}
	return n
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.up) }

// Flow is one transfer of an Exchange: Bytes from node Src to node
// Dst, sent after Lead, the sender's own work before the bytes leave
// (serialization), which holds no link.
type Flow struct {
	Src, Dst int
	Bytes    int64
	Lead     time.Duration
}

// Exchange runs every flow at once and returns when the last one is
// done. Each flow is a stackless task, spawned in slice order, that
// sleeps its Lead if it is positive and then drives an Xfer, so the
// flows contend for links exactly as concurrent processes each driving
// one Xfer would. The calling process parks once, and not at all for
// no flows; name names the tasks.
func (n *Network) Exchange(name string, flows []Flow) {
	if len(flows) == 0 {
		return
	}
	ex := &exchange{live: len(flows), done: vclock.NewEvent(n.clock)}
	tasks := make([]flowTask, len(flows))
	for i, f := range flows {
		ft := &tasks[i]
		ft.ex, ft.lead = ex, f.Lead
		ft.x.Start(n, f.Src, f.Dst, f.Bytes)
		ft.t = n.clock.Spawn(name, ft.step)
	}
	ex.done.Wait()
}

// exchange is what an Exchange's flows share: how many are still
// running, and the event the last one sets.
type exchange struct {
	live int
	done *vclock.Event
}

// flowTask is one flow of an Exchange as a task.
type flowTask struct {
	x    Xfer
	lead time.Duration // still to sleep before the transfer
	t    *vclock.Task
	ex   *exchange
}

func (f *flowTask) step() {
	if d := f.lead; d > 0 {
		f.lead = 0
		if !f.t.Sleep(d) {
			return
		}
	}
	if !f.x.Step(f.t) {
		return
	}
	if f.ex.live--; f.ex.live == 0 {
		f.ex.done.Set()
	}
	f.t.Exit()
}

// xferPhase is where an Xfer stands in its transfer.
type xferPhase uint8

const (
	xferIdle  xferPhase = iota // no transfer in flight
	xferUp                     // take the uplink
	xferDown                   // take the downlink
	xferWire                   // hold both links for the transfer time
	xferSlept                  // the transfer time has passed: release
)

// Xfer is one transfer as a state machine a vclock task embeds and
// drives from its step: the uplink, the downlink (in that fixed global
// order, so opposing transfers never hold each other's link), the
// transfer time, then both releases and the counters. The zero value
// is idle.
type Xfer struct {
	n        *Network
	src, dst int
	bytes    int64
	d        time.Duration
	phase    xferPhase
}

// Start begins moving bytes from node src to node dst. A same-node or
// empty transfer touches neither link and leaves x idle, so the next
// Step completes in place.
func (x *Xfer) Start(n *Network, src, dst int, bytes int64) {
	if src == dst || bytes <= 0 {
		return
	}
	n.checkNode(src)
	n.checkNode(dst)
	*x = Xfer{n: n, src: src, dst: dst, bytes: bytes, d: n.model.TransferTime(bytes), phase: xferUp}
}

// Step drives the transfer Start began. It returns true once the
// transfer is done. It returns false when t was parked on a link or for
// the transfer time: the step must return, and call Step again when it
// runs next.
func (x *Xfer) Step(t *vclock.Task) bool {
	for {
		switch x.phase {
		case xferIdle:
			return true
		case xferUp:
			x.phase = xferDown
			if !x.n.up[x.src].AcquireTask(t, 1) {
				return false
			}
		case xferDown:
			x.phase = xferWire
			if !x.n.down[x.dst].AcquireTask(t, 1) {
				return false
			}
		case xferWire:
			x.phase = xferSlept
			if !t.Sleep(x.d) {
				return false
			}
		case xferSlept:
			n := x.n
			n.down[x.dst].Release(1)
			n.up[x.src].Release(1)
			n.transfers++
			n.bytes += x.bytes
			x.phase = xferIdle
		}
	}
}

// Stats reports cumulative transfer counters.
func (n *Network) Stats() (transfers, bytes int64) {
	return n.transfers, n.bytes
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= len(n.up) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", id, len(n.up)))
	}
}
