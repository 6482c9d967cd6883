package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// exchangeTime runs one Exchange of flows on a fresh nodes-node network
// and returns the virtual time it took.
func exchangeTime(t *testing.T, nodes int, flows []Flow) time.Duration {
	t.Helper()
	c := vclock.New()
	n := New(c, costmodel.DefaultNet, nodes)
	return c.Run(func() { n.Exchange("test", flows) })
}

// testSizes are transfer sizes of different times, none a multiple of
// another, so a sum and a maximum of them never coincide.
var testSizes = []int64{125_000_000, 3_000_017, 40_000_000, 777_777, 12_345_678, 90_000_001}

// transferTimes sums and maximizes TransferTime over the first k
// testSizes.
func transferTimes(k int) (sum, most time.Duration) {
	for _, b := range testSizes[:k] {
		d := costmodel.DefaultNet.TransferTime(b)
		sum += d
		most = max(most, d)
	}
	return sum, most
}

// TestExchangeFanInSerializes: k flows from k different senders into
// one node share its downlink, so the exchange takes exactly the sum of
// their transfer times.
func TestExchangeFanInSerializes(t *testing.T) {
	for k := 1; k <= len(testSizes); k++ {
		var flows []Flow
		for i, b := range testSizes[:k] {
			flows = append(flows, Flow{Src: i + 1, Dst: 0, Bytes: b})
		}
		want, _ := transferTimes(k)
		if got := exchangeTime(t, k+1, flows); got != want {
			t.Errorf("%d flows into one node took %v, want the sum %v", k, got, want)
		}
	}
}

// TestExchangeFanOutSerializes: k flows from one node to k different
// receivers share its uplink, so the exchange takes exactly the sum of
// their transfer times.
func TestExchangeFanOutSerializes(t *testing.T) {
	for k := 1; k <= len(testSizes); k++ {
		var flows []Flow
		for i, b := range testSizes[:k] {
			flows = append(flows, Flow{Src: 0, Dst: i + 1, Bytes: b})
		}
		want, _ := transferTimes(k)
		if got := exchangeTime(t, k+1, flows); got != want {
			t.Errorf("%d flows out of one node took %v, want the sum %v", k, got, want)
		}
	}
}

// TestExchangeDisjointPairsOverlap: flows that share no link run side
// by side, so the exchange takes exactly the longest one.
func TestExchangeDisjointPairsOverlap(t *testing.T) {
	for k := 1; k <= len(testSizes); k++ {
		var flows []Flow
		for i, b := range testSizes[:k] {
			flows = append(flows, Flow{Src: 2 * i, Dst: 2*i + 1, Bytes: b})
		}
		_, want := transferTimes(k)
		if got := exchangeTime(t, 2*k, flows); got != want {
			t.Errorf("%d disjoint pairs took %v, want the longest %v", k, got, want)
		}
	}
}

// TestExchangeLeadPrecedesTransfer: a flow's Lead holds no link, so a
// lone flow takes its lead plus its transfer time, and a flow leading
// while another holds the shared uplink overlaps its lead with it.
func TestExchangeLeadPrecedesTransfer(t *testing.T) {
	m := costmodel.DefaultNet
	a, b := testSizes[0], testSizes[1]
	lead := 5 * time.Millisecond
	if got, want := exchangeTime(t, 2, []Flow{{Src: 0, Dst: 1, Bytes: a, Lead: lead}}), lead+m.TransferTime(a); got != want {
		t.Errorf("lone flow with lead took %v, want %v", got, want)
	}
	got := exchangeTime(t, 3, []Flow{{Src: 0, Dst: 1, Bytes: a}, {Src: 0, Dst: 2, Bytes: b, Lead: lead}})
	if want := m.TransferTime(a) + m.TransferTime(b); got != want {
		t.Errorf("lead under a busy uplink: took %v, want %v", got, want)
	}
}

// TestExchangeAllToAllBounds: an all-to-all exchange takes at least the
// largest per-node sum of transfer times in or out (each link carries
// one transfer at a time), so at least that node's bytes over the
// bandwidth, and at most every transfer in series.
func TestExchangeAllToAllBounds(t *testing.T) {
	m := costmodel.DefaultNet
	for nodes := 2; nodes <= 6; nodes++ {
		var flows []Flow
		in := make([]time.Duration, nodes)
		out := make([]time.Duration, nodes)
		inBytes := make([]int64, nodes)
		outBytes := make([]int64, nodes)
		var serial time.Duration
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				b := testSizes[(src*nodes+dst)%len(testSizes)]
				flows = append(flows, Flow{Src: src, Dst: dst, Bytes: b})
				d := m.TransferTime(b)
				out[src] += d
				in[dst] += d
				outBytes[src] += b
				inBytes[dst] += b
				serial += d
			}
		}
		lower := max(slices.Max(in), slices.Max(out))
		wire := time.Duration(float64(max(slices.Max(inBytes), slices.Max(outBytes))) / (m.BandwidthGbps * 1e9 / 8) * 1e9)
		got := exchangeTime(t, nodes, flows)
		if got < lower || got < wire || got > serial {
			t.Errorf("%d-node all-to-all took %v, want within [%v, %v] and at least the byte bound %v", nodes, got, lower, serial, wire)
		}
	}
}

// TestExchangeParksCallerOnce: an exchange of N flows parks its caller
// exactly once, whatever N, and an empty one not at all.
func TestExchangeParksCallerOnce(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5, 30} {
		c := vclock.New()
		n := New(c, costmodel.DefaultNet, 3)
		var parks uint64
		c.Run(func() {
			flows := make([]Flow, k)
			for i := range flows {
				flows[i] = Flow{Src: i % 3, Dst: (i + 1) % 3, Bytes: int64(1000 * (i + 1)), Lead: time.Duration(i%2) * time.Millisecond}
			}
			before := c.Parks()
			n.Exchange("test", flows)
			parks = c.Parks() - before
		})
		want := uint64(1)
		if k == 0 {
			want = 0
		}
		if parks != want {
			t.Errorf("exchange of %d flows parked its caller %d times, want %d", k, parks, want)
		}
	}
}

// refExchange is Exchange written as a group of processes, one per
// flow, each sleeping its lead and then calling Transfer.
func refExchange(n *Network, flows []Flow) {
	g := vclock.NewGroup(n.clock)
	for _, f := range flows {
		g.Go("ref", func() {
			if f.Lead > 0 {
				n.clock.Sleep(f.Lead)
			}
			n.Transfer(f.Src, f.Dst, f.Bytes)
		})
	}
	g.Wait()
}

// exchangeRun is one decoded FuzzExchange input run through an
// exchange: the time the exchange took, the network's Stats and the
// finish time of every background transfer.
type exchangeRun struct {
	took             time.Duration
	transfers, bytes int64
	background       []time.Duration
}

// runExchange decodes data into a network, an exchange started after a
// delay, and a background process whose transfers contend for the same
// links, and runs the exchange through do.
func runExchange(data []byte, do func(*Network, []Flow)) exchangeRun {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nodes := 2 + next()%7
	delay := time.Duration(next()%4) * time.Millisecond
	type bg struct {
		src, dst int
		bytes    int64
		gap      time.Duration
	}
	bgs := make([]bg, next()%6)
	for i := range bgs {
		bgs[i] = bg{next() % nodes, next() % nodes, int64(next()) * 12_500, time.Duration(next()%8) * 500 * time.Microsecond}
	}
	var flows []Flow
	for len(data) > 0 && len(flows) < 64 {
		flows = append(flows, Flow{Src: next() % nodes, Dst: next() % nodes, Bytes: int64(next()) * 12_500, Lead: time.Duration(next()%8) * 100 * time.Microsecond})
	}

	c := vclock.New()
	n := New(c, costmodel.DefaultNet, nodes)
	var r exchangeRun
	c.Run(func() {
		c.Go("background", func() {
			for _, b := range bgs {
				c.Sleep(b.gap)
				n.Transfer(b.src, b.dst, b.bytes)
				r.background = append(r.background, c.Now())
			}
		})
		c.Sleep(delay)
		t0 := c.Now()
		do(n, flows)
		r.took = c.Now() - t0
	})
	r.transfers, r.bytes = n.Stats()
	return r
}

// FuzzExchange holds Exchange to refExchange on random node counts,
// flows and leads, with a background process transferring over the
// same links: the exchange's duration, the network's Stats and every
// background transfer's finish time must match. The seed corpus is
// under testdata/fuzz/FuzzExchange.
func FuzzExchange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runExchange(data, func(n *Network, flows []Flow) { n.Exchange("fuzz", flows) })
		want := runExchange(data, refExchange)
		if got.took != want.took || got.transfers != want.transfers || got.bytes != want.bytes || !slices.Equal(got.background, want.background) {
			t.Errorf("Exchange: %s\nreference: %s", got, want)
		}
	})
}

func (r exchangeRun) String() string {
	return fmt.Sprintf("took %v, %d transfers, %d bytes, background finished at %v", r.took, r.transfers, r.bytes, r.background)
}
