// Package netsim models the cluster interconnect: one full-duplex link
// per node (gigabit Ethernet in the paper's testbed). A transfer holds
// the sender's uplink and the receiver's downlink for its duration, so
// concurrent shuffles contend for link capacity deterministically.
package netsim

import (
	"fmt"

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

// Transfer moves bytes from node src to node dst, blocking the calling
// process for the transfer duration. A same-node transfer is a memory
// copy and costs nothing on the network.
func (n *Network) Transfer(src, dst int, bytes int64) {
	if src == dst || bytes <= 0 {
		return
	}
	n.checkNode(src)
	n.checkNode(dst)
	d := n.model.TransferTime(bytes)
	// Acquire in fixed global order (uplink then downlink, by index) to
	// avoid lock cycles between opposing transfers.
	n.up[src].Acquire(1)
	n.down[dst].Acquire(1)
	n.clock.Sleep(d)
	n.down[dst].Release(1)
	n.up[src].Release(1)
	n.transfers++
	n.bytes += bytes
}

// Stats reports cumulative transfer counters.
func (n *Network) Stats() (transfers, bytes int64) {
	return n.transfers, n.bytes
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= len(n.up) {
		//gflink:allow-alloc error diagnostic: an out-of-range node ends the simulation
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", id, len(n.up)))
	}
}
