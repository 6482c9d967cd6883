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

// tierRing caches blocks 0..n-1 of job 1, each of real bytes filled
// with its own pattern, in a region that holds one 60-byte entry in
// front of a host tier of two pages (tieredGFlink(100, 130)). Acquiring
// the blocks in turn then makes every Acquire, from the first round on,
// reload its block from the spill disk, demote the resident block and
// spill the oldest resident page. Tracing is off, as in a timed
// benchmark run. Build and cycle it inside g.Run.
type tierRing struct {
	mem  *GMemoryManager
	bufs []*gpu.Buffer // the buffer each block was inserted with
	next int
}

func newTierRing(g *GFlink, n, real int) (*tierRing, error) {
	g.Obs.Tracer().SetEnabled(false)
	r := &tierRing{mem: g.Manager(0).Streams.Memory(0)}
	for i := 0; i < n; i++ {
		b, err := r.mem.Device().Malloc(60, real)
		if err != nil {
			return nil, err
		}
		copy(b.Bytes(), tierPattern(i, real))
		if !r.mem.Insert(tierKey(i), b, 60) {
			return nil, fmt.Errorf("insert %d failed", i)
		}
		r.mem.Release(tierKey(i))
		r.bufs = append(r.bufs, b)
	}
	return r, nil
}

func tierKey(i int) CacheKey { return CacheKey{JobID: 1, Block: i} }

// tierPattern is block i's real bytes.
func tierPattern(i, real int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, real)
}

// cycle acquires and releases the next block and returns the buffer
// Acquire handed out, nil on a miss.
func (r *tierRing) cycle() (int, *gpu.Buffer) {
	i := r.next
	r.next = (i + 1) % len(r.bufs)
	buf, ok := r.mem.Acquire(tierKey(i))
	if !ok {
		return i, nil
	}
	r.mem.Release(tierKey(i))
	return i, buf
}

// TestHostTierCyclesHandOffBuffers cycles five blocks through a
// one-entry region and a two-page host tier (see tierRing). Every
// promotion returns the very buffer the block was evicted with, its
// bytes untouched; after the first round a cycle allocates nothing;
// spills and reloads both happen; and after ReleaseJob the job has no
// tier page and every device buffer is back on the device's free list.
func TestHostTierCyclesHandOffBuffers(t *testing.T) {
	const n, real = 5, 24
	g := tieredGFlink(100, 130)
	g.Run(func() {
		r, err := newTierRing(g, n, real)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n)
		for i := range want {
			want[i] = tierPattern(i, real)
		}
		round := func() {
			for range r.bufs {
				i, buf := r.cycle()
				if buf != r.bufs[i] {
					t.Fatalf("block %d promoted as %p, want the evicted buffer %p", i, buf, r.bufs[i])
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Fatalf("block %d promoted with bytes %v", i, buf.Bytes())
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(4, round); allocs != 0 {
			t.Errorf("%.1f heap allocations per round of %d tier cycles, want 0", allocs, n)
		}
		if m := g.Obs.Metrics(); m.Get("mem.spills.gpu0") == 0 || m.Get("mem.reloads.gpu0") == 0 {
			t.Error("the cycle never spilled or reloaded; the test exercises nothing")
		}
		dev := r.mem.Device()
		g.ReleaseJobCaches(1)
		if pages := r.mem.HostPages(1); pages != 0 {
			t.Errorf("after ReleaseJob: %d tier pages left", pages)
		}
		if used := dev.UsedBytes(); used != 0 {
			t.Errorf("after ReleaseJob: device holds %d bytes", used)
		}
		// With every buffer back on the free list, n Mallocs draw
		// exactly the n buffers the blocks lived in.
		seen := make(map[*gpu.Buffer]bool)
		for range r.bufs {
			b, err := dev.Malloc(60, real)
			if err != nil {
				t.Fatal(err)
			}
			seen[b] = true
		}
		for i, b := range r.bufs {
			if !seen[b] {
				t.Errorf("block %d's buffer is not on the device free list after ReleaseJob", i)
			}
		}
	})
}

// BenchmarkTierCycle times one host-tier cycle: an Acquire that reloads
// a spilled block, demotes the resident one and spills the oldest
// resident page (see tierRing), over 64 KiB blocks.
func BenchmarkTierCycle(b *testing.B) {
	g := tieredGFlink(100, 130)
	g.Run(func() {
		r, err := newTierRing(g, 5, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		for range r.bufs {
			r.cycle()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, buf := r.cycle(); buf == nil {
				b.Fatal("tier cycle missed")
			}
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
				// A demoted entry would come back as the same buffer, so
				// check that it never left the region before acquiring it.
				if mem.CachedBytes([]CacheKey{pinned}) != 400 {
					t.Fatal("pinned entry left the device under Reclaim churn")
				}
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
	if m.hostPages == nil {
		t.Error("host tier enabled but its page table not initialised")
	}

	def := NewMemoryManager(dev, wrapper, 1<<20)
	if def.policy != EvictFIFO {
		t.Errorf("default policy = %v, want fifo", def.policy)
	}
	if def.HostTierBytes() != 0 || def.hostPages != nil {
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
