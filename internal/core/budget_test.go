package core

import (
	"fmt"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// TestCacheAllocatesNothing pins the device cache's hit and its
// evicting insert at zero heap allocations once entry shells and device
// buffers recycle, under FIFO and under LRU eviction (DESIGN.md
// invariant 10; TestReclaimAllocatesNothing covers Reclaim). A hit is
// an Acquire and its Release; under LRU it also moves the entry to the
// back of the eviction order. An eviction cycle inserts one block into
// a full region: the policy's victim is evicted and its buffer freed,
// over a fixed ring of keys.
func TestCacheAllocatesNothing(t *testing.T) {
	for _, policy := range []CachePolicy{EvictFIFO, EvictLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			hits, evictions, entries, err := cacheAllocs(policy)
			if err != nil {
				t.Fatal(err)
			}
			if entries != cacheRoom {
				t.Fatalf("%d entries cached, want %d (every insert past the first %d evicts)", entries, cacheRoom, cacheRoom)
			}
			if hits != 0 || evictions != 0 {
				t.Fatalf("%.2f heap allocations per hit and %.2f per evicting insert at steady state, want 0", hits, evictions)
			}
		})
	}
}

// cacheRoom is the entries TestCacheAllocatesNothing's region holds.
const cacheRoom = 4

// cacheAllocs returns the steady-state heap allocations per hit and per
// evicting insert under policy, and the entries cached after them.
func cacheAllocs(policy CachePolicy) (hits, evictions float64, entries int, err error) {
	const blocks = 8 // keys cycled through
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
		GPUsPerWorker:    1,
		CacheBytesPerJob: cacheRoom * 10,
		CachePolicy:      policy,
	})
	mem := g.Manager(0).Streams.Memory(0)
	dev := mem.Device()
	next := 0
	insert := func() {
		key := CacheKey{JobID: 1, Block: next % blocks}
		next++
		buf, merr := dev.MallocReserve(10, 16)
		if merr != nil {
			err = merr
			return
		}
		dev.MallocFill(buf, 16)
		if !mem.Insert(key, buf, 10) {
			err = fmt.Errorf("Insert(%+v) rejected", key)
			return
		}
		mem.Release(key)
	}
	hit := func() {
		key := CacheKey{JobID: 1, Block: (next - 1) % blocks}
		if _, ok := mem.Acquire(key); !ok {
			err = fmt.Errorf("Acquire(%+v) missed", key)
			return
		}
		mem.Release(key)
	}
	g.Run(func() {
		for i := 0; i < 64; i++ {
			insert()
			hit()
		}
		hits = testing.AllocsPerRun(1000, hit)
		evictions = testing.AllocsPerRun(1000, insert)
	})
	return hits, evictions, regionEntries(mem, 1), err
}

// TestSchedulingAllocatesNothing pins the two-GPU scheduling paths at
// zero heap allocations per GWork (DESIGN.md invariant 10): Algorithm
// 5.1's pick by cached bytes with Algorithm 5.2's steal from another
// GPU's queue, and the RoundRobin ablation's pick. Each round submits
// four cache-flagged GWorks to a worker of two GPUs with one stream
// each before waiting for any. Once both GPUs cache the input, Algorithm
// 5.1 picks GPU 0 for all four: the first runs there, the second on
// GPU 1's idle stream, and the last two queue on GPU 0, where GPU 1's
// stream steals one.
func TestSchedulingAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SchedulerPolicy
	}{{"locality-steal", LocalityAware}, {"round-robin", RoundRobin}} {
		t.Run(tc.name, func(t *testing.T) {
			const n, batch = 64, 4
			clock := vclock.New()
			model := costmodel.Default()
			wrapper := NewCUDAWrapper(clock, model)
			var mems []*GMemoryManager
			for id := 0; id < 2; id++ {
				dev := gpu.NewDevice(clock, id, 0, costmodel.C2050, model.PCIe)
				mems = append(mems, NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10))
			}
			mgr := NewStreamManager(StreamConfig{
				Clock:         clock,
				Wrapper:       wrapper,
				Memories:      mems,
				StreamsPerGPU: 1,
				Policy:        tc.policy,
				Metrics:       obs.NewRegistry(),
			})
			pool := membuf.NewPool(clock, model, membuf.Config{})
			var allocs float64
			var steals int64
			var ran [2]bool
			var kerr error
			clock.Run(func() {
				in := pool.MustAllocate(4 * n)
				var outs [batch]*membuf.HBuffer
				for i := range outs {
					outs[i] = pool.MustAllocate(4 * n)
				}
				wp := mgr.Pool()
				var works [batch]*GWork
				round := func() {
					for i := range works {
						w := wp.Get()
						w.ExecuteName = "core_test.double"
						w.Size, w.Nominal, w.BlockSize, w.GridSize = n, n, 256, 1
						w.In = append(w.In, Input{Buf: in, Nominal: 4 * n, Cache: true, Key: CacheKey{JobID: 1}})
						w.Out, w.OutNominal = outs[i], 4*n
						mgr.Submit(w)
						works[i] = w
					}
					for _, w := range works {
						if err := w.Wait(); err != nil && kerr == nil {
							kerr = err
						}
						ran[w.Report().DeviceID] = true
						wp.Put(w)
					}
				}
				for i := 0; i < 64; i++ {
					round()
				}
				before := mgr.cntSteals.Get()
				allocs = testing.AllocsPerRun(1000, round)
				steals = mgr.cntSteals.Get() - before
				mgr.Close()
				for _, m := range mems {
					m.Device().Close()
				}
			})
			if kerr != nil {
				t.Fatal(kerr)
			}
			if ran != [2]bool{true, true} {
				t.Fatalf("GWorks ran on GPUs %v, want both", ran)
			}
			if tc.policy == LocalityAware && steals == 0 {
				t.Fatal("no GWork was stolen at steady state")
			}
			if allocs != 0 {
				t.Fatalf("%.2f heap allocations per round of %d GWorks at steady state, want 0", allocs, batch)
			}
		})
	}
}
