package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/vclock"
)

// tieredGFlink builds a single-GPU deployment with the host paging
// tier armed.
func tieredGFlink(cacheBytes, hostTier int64) *GFlink {
	return New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: cacheBytes,
		HostTierBytes:    hostTier,
	})
}

func TestLRUEvictionKeepsTouchedEntry(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 100,
		CachePolicy:      EvictLRU,
	})
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		k1 := CacheKey{JobID: 1, Block: 1}
		k2 := CacheKey{JobID: 1, Block: 2}
		k3 := CacheKey{JobID: 1, Block: 3}
		for _, k := range []CacheKey{k1, k2} {
			b, _ := dev.Malloc(40, 0)
			if !mem.Insert(k, b, 40) {
				t.Fatalf("insert %v failed", k)
			}
			mem.Release(k)
		}
		// Touch k1: under LRU it becomes most-recently-used, so the
		// third insert must evict k2 — the opposite of FIFO.
		if _, ok := mem.Acquire(k1); !ok {
			t.Fatal("k1 not resident")
		}
		mem.Release(k1)
		b3, _ := dev.Malloc(40, 0)
		if !mem.Insert(k3, b3, 40) {
			t.Fatal("insert k3 failed")
		}
		mem.Release(k3)
		if _, ok := mem.Acquire(k2); ok {
			t.Error("k2 survived LRU eviction despite being least recently used")
		}
		if _, ok := mem.Acquire(k1); !ok {
			t.Error("LRU evicted the recently touched k1")
		} else {
			mem.Release(k1)
		}
		g.ReleaseJobCaches(1)
	})
}

// TestHostTierDemotePromoteRoundTrip pins invariant 11: a victim's
// bytes demote into the host tier and a later Acquire promotes them
// back bit-identical, at simulated transfer cost.
func TestHostTierDemotePromoteRoundTrip(t *testing.T) {
	g := tieredGFlink(100, 1<<20)
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		k1 := CacheKey{JobID: 1, Block: 1}
		k2 := CacheKey{JobID: 1, Block: 2}
		b1, _ := dev.Malloc(60, 16)
		want := []byte("tiered-memory-11")
		copy(b1.Bytes(), want)
		if !mem.Insert(k1, b1, 60) {
			t.Fatal("insert k1 failed")
		}
		mem.Release(k1)
		b2, _ := dev.Malloc(60, 0)
		t0 := g.Clock.Now()
		if !mem.Insert(k2, b2, 60) { // evicts k1 -> demotes it
			t.Fatal("insert k2 failed")
		}
		if g.Clock.Now() == t0 {
			t.Error("demotion charged no simulated transfer time")
		}
		mem.Release(k2)
		if got := mem.HostPages(1); got != 1 {
			t.Fatalf("host pages = %d, want 1 (demoted k1)", got)
		}
		m := g.Obs.Metrics()
		if got := m.Get("mem.demotions.gpu0"); got != 1 {
			t.Errorf("mem.demotions.gpu0 = %d, want 1", got)
		}
		t1 := g.Clock.Now()
		buf, ok := mem.Acquire(k1)
		if !ok {
			t.Fatal("k1 not promotable from the host tier")
		}
		if g.Clock.Now() == t1 {
			t.Error("promotion charged no simulated transfer time")
		}
		if !bytes.Equal(buf.Bytes()[:len(want)], want) {
			t.Errorf("promoted bytes = %q, want %q", buf.Bytes()[:len(want)], want)
		}
		mem.Release(k1)
		if got := m.Get("mem.promotions.gpu0"); got != 1 {
			t.Errorf("mem.promotions.gpu0 = %d, want 1", got)
		}
		// Promoting k1 into the full region evicted k2, which demoted in
		// turn: the tier holds exactly k2's page now.
		if got := mem.HostPages(1); got != 1 {
			t.Errorf("host pages after promotion = %d, want 1 (k2 demoted by k1's re-entry)", got)
		}
		if got := m.Get("mem.demotions.gpu0"); got != 2 {
			t.Errorf("mem.demotions.gpu0 = %d, want 2 (k1 then k2)", got)
		}
		g.ReleaseJobCaches(1)
	})
}

// TestHostTierSpillReload overflows the host tier so the page spills
// to the simulated disk, then reloads it — still bit-identical.
func TestHostTierSpillReload(t *testing.T) {
	g := tieredGFlink(100, 50) // tier smaller than one 60-byte page
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		k1 := CacheKey{JobID: 1, Block: 1}
		k2 := CacheKey{JobID: 1, Block: 2}
		b1, _ := dev.Malloc(60, 8)
		want := []byte("spill-me")
		copy(b1.Bytes(), want)
		if !mem.Insert(k1, b1, 60) {
			t.Fatal("insert k1 failed")
		}
		mem.Release(k1)
		b2, _ := dev.Malloc(60, 0)
		if !mem.Insert(k2, b2, 60) { // demote k1; 60 > 50 -> spill it
			t.Fatal("insert k2 failed")
		}
		mem.Release(k2)
		m := g.Obs.Metrics()
		if got := m.Get("mem.spills.gpu0"); got != 1 {
			t.Fatalf("mem.spills.gpu0 = %d, want 1", got)
		}
		if got := mem.HostPages(1); got != 1 {
			t.Fatalf("host pages = %d, want 1 (spilled k1)", got)
		}
		buf, ok := mem.Acquire(k1)
		if !ok {
			t.Fatal("k1 not reloadable from the spill disk")
		}
		if !bytes.Equal(buf.Bytes()[:len(want)], want) {
			t.Errorf("reloaded bytes = %q, want %q", buf.Bytes()[:len(want)], want)
		}
		mem.Release(k1)
		if got := m.Get("mem.reloads.gpu0"); got != 1 {
			t.Errorf("mem.reloads.gpu0 = %d, want 1", got)
		}
		if got := m.Get("mem.promotions.gpu0"); got != 1 {
			t.Errorf("mem.promotions.gpu0 = %d, want 1", got)
		}
		g.ReleaseJobCaches(1)
	})
}

// TestHostTierCyclesReuseSpans cycles five keys through a one-entry
// region and a two-page host tier, so every Acquire promotes or reloads
// one page and demotes (and may spill) others. Bytes round-trip on every
// hop; every live page is backed by exactly one span of the host or disk
// pool; after the first round neither pool takes a fresh span from the
// Go heap; and releasing the job returns every span.
func TestHostTierCyclesReuseSpans(t *testing.T) {
	g := tieredGFlink(100, 130) // region holds one 60-byte entry, the tier two
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		const n = 5
		key := func(i int) CacheKey { return CacheKey{JobID: 1, Block: i} }
		want := func(i int) []byte { return []byte(fmt.Sprintf("block-%d", i)) }
		for i := 0; i < n; i++ {
			b, _ := dev.Malloc(60, len(want(i)))
			copy(b.Bytes(), want(i))
			if !mem.Insert(key(i), b, 60) {
				t.Fatalf("insert %d failed", i)
			}
			mem.Release(key(i))
		}
		fresh := func() int64 {
			h, d := mem.hostPool.Stats(), mem.diskPool.Stats()
			return h.Allocs - h.Reused + d.Allocs - d.Reused
		}
		var afterFirst int64
		for round := 0; round < 4; round++ {
			for i := 0; i < n; i++ {
				buf, ok := mem.Acquire(key(i))
				if !ok {
					t.Fatalf("round %d: key %d not promotable", round, i)
				}
				if got := buf.Bytes(); !bytes.Equal(got, want(i)) {
					t.Fatalf("round %d: key %d promoted as %q, want %q", round, i, got, want(i))
				}
				mem.Release(key(i))
				h, d := mem.hostPool.Stats(), mem.diskPool.Stats()
				if pages := mem.HostPages(1); h.InUsePages+d.InUsePages != pages {
					t.Fatalf("round %d key %d: %d host + %d disk spans back %d tier pages", round, i, h.InUsePages, d.InUsePages, pages)
				}
			}
			if round == 0 {
				afterFirst = fresh()
			}
		}
		if got := fresh(); got != afterFirst {
			t.Errorf("tier took %d fresh spans after the first round, want 0", got-afterFirst)
		}
		if m := g.Obs.Metrics(); m.Get("mem.spills.gpu0") == 0 || m.Get("mem.reloads.gpu0") == 0 {
			t.Error("the cycle never spilled or reloaded; the test exercises nothing")
		}
		g.ReleaseJobCaches(1)
		if h, d := mem.hostPool.Stats(), mem.diskPool.Stats(); h.InUsePages != 0 || d.InUsePages != 0 {
			t.Errorf("after ReleaseJob: %d host and %d disk pages still in use", h.InUsePages, d.InUsePages)
		}
	})
}

// TestReclaimNeverDemotesPinned is the regression test for Reclaim
// racing in-flight pins: churn goroutines insert, reclaim and acquire
// around a long-pinned entry, and the pinned entry must never be
// demoted or spilled — its device buffer stays the same object with
// the same bytes. Run with -race; exercised at GOMAXPROCS 1 and 4.
func TestReclaimNeverDemotesPinned(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			g := tieredGFlink(1000, 500)
			g.Run(func() {
				mem := g.Manager(0).Streams.Memory(0)
				dev := g.Manager(0).Devices[0]
				pinned := CacheKey{JobID: 1, Block: 0}
				b1, err := dev.Malloc(400, 8)
				if err != nil {
					t.Fatal(err)
				}
				want := []byte("pinned!!")
				copy(b1.Bytes(), want)
				if !mem.Insert(pinned, b1, 400) {
					t.Fatal("insert pinned entry failed")
				}
				// Stays pinned (refs=1) through all the churn below.
				grp := vclock.NewGroup(g.Clock)
				for w := 0; w < 4; w++ {
					w := w
					grp.Go(fmt.Sprintf("churn[%d]", w), func() {
						for i := 0; i < 25; i++ {
							k := CacheKey{JobID: 1, Block: 1 + w*100 + i}
							b, err := dev.Malloc(300, 4)
							if err != nil {
								mem.Reclaim(300)
								if b, err = dev.Malloc(300, 4); err != nil {
									continue
								}
							}
							if mem.Insert(k, b, 300) {
								mem.Release(k)
							} else {
								dev.Free(b)
							}
							g.Clock.Sleep(time.Microsecond)
							mem.Reclaim(200)
							if _, ok := mem.Acquire(k); ok {
								mem.Release(k)
							}
						}
					})
				}
				grp.Wait()
				buf, ok := mem.Acquire(pinned)
				if !ok {
					t.Fatal("pinned entry vanished under Reclaim churn")
				}
				if buf != b1 {
					t.Error("pinned entry was demoted and re-promoted while pinned: device buffer replaced")
				}
				if !bytes.Equal(buf.Bytes()[:len(want)], want) {
					t.Errorf("pinned bytes = %q, want %q", buf.Bytes()[:len(want)], want)
				}
				mem.Release(pinned) // the Acquire above
				mem.Release(pinned) // the original insert pin
				g.ReleaseJobCaches(1)
			})
		})
	}
}

// TestMemOptionsAndShim checks the functional options, including a
// WithPolicy build and the name of every CachePolicy.
func TestMemOptionsAndShim(t *testing.T) {
	model := costmodel.Default()
	clock := vclock.New()
	wrapper := NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	m := NewMemoryManager(dev, wrapper, 1<<20,
		WithPolicy(EvictLRU), WithHostTierBytes(4096))
	if m.policy != EvictLRU {
		t.Errorf("WithPolicy: policy = %v, want lru", m.policy)
	}
	if m.HostTierBytes() != 4096 {
		t.Errorf("WithHostTierBytes: %d, want 4096", m.HostTierBytes())
	}
	if m.hostPool == nil || m.hostPages == nil {
		t.Error("host tier enabled but pool/pages not initialised")
	}

	def := NewMemoryManager(dev, wrapper, 1<<20)
	if def.policy != EvictFIFO {
		t.Errorf("default policy = %v, want fifo", def.policy)
	}
	if def.HostTierBytes() != 0 || def.hostPool != nil {
		t.Error("default manager must have the host tier disabled")
	}
	if def.spillDisk != costmodel.DefaultSpillDisk {
		t.Errorf("default spill disk = %+v, want DefaultSpillDisk", def.spillDisk)
	}

	for _, tc := range []struct {
		pol  CachePolicy
		name string
	}{
		{EvictFIFO, "fifo"}, {StopWhenFull, "stop"}, {EvictLRU, "lru"},
	} {
		if got := tc.pol.String(); got != tc.name {
			t.Errorf("CachePolicy(%d).String() = %q, want %q", tc.pol, got, tc.name)
		}
	}
	clock.Run(func() { dev.Close() })
}
