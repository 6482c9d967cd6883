package core

import (
	"math/rand"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// pickManager builds a stream manager over n fresh C2050 devices,
// each with an empty cache region, and runs fn on the clock.
func pickManager(t *testing.T, n int, policy SchedulerPolicy, fn func(*GStreamManager, []*GMemoryManager)) {
	t.Helper()
	clock := vclock.New()
	model := costmodel.Default()
	wrapper := NewCUDAWrapper(clock, model)
	mems := make([]*GMemoryManager, n)
	for id := range mems {
		dev := gpu.NewDevice(clock, id, 0, costmodel.C2050, model.PCIe)
		mems[id] = NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10)
	}
	mgr := NewStreamManager(StreamConfig{
		Clock: clock, Wrapper: wrapper, Memories: mems,
		StreamsPerGPU: 1, Policy: policy, Metrics: obs.NewRegistry(),
	})
	clock.Run(func() {
		fn(mgr, mems)
		mgr.Close()
		for _, m := range mems {
			m.Device().Close()
		}
	})
}

// TestPickGPUIsAlgorithm51 is an oracle for Algorithm 5.1's GPU choice
// over random cache states and works. For each device it sums the
// nominal bytes of the work's cache-flagged inputs that the device
// holds, from its own record of what was inserted where; pickGPU must
// return the device with the largest sum, the lowest index among ties,
// and -1 when no device holds any of them (or the work caches nothing).
// Nominal sizes come from a set of three, so ties are common. Under
// RoundRobin it must cycle 0, 1, …, n-1 whatever is cached.
func TestPickGPUIsAlgorithm51(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var ties, nones int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		keys := make([]CacheKey, 6)
		for i := range keys {
			keys[i] = CacheKey{JobID: 1 + i%2, Partition: i / 2, Block: i}
		}
		pickManager(t, n, LocalityAware, func(mgr *GStreamManager, mems []*GMemoryManager) {
			held := make([]map[CacheKey]int64, n)
			for d, mem := range mems {
				held[d] = make(map[CacheKey]int64)
				for _, k := range keys {
					if rng.Intn(3) != 0 {
						continue
					}
					nominal := int64(1+rng.Intn(3)) << 20
					buf, err := mem.Device().Malloc(nominal, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !mem.Insert(k, buf, nominal) {
						t.Fatalf("Insert(%+v) rejected", k)
					}
					mem.Release(k)
					held[d][k] = nominal
				}
			}
			w := &GWork{}
			for _, i := range rng.Perm(len(keys))[:rng.Intn(len(keys)+1)] {
				// An input that is not cache-flagged never counts.
				w.In = append(w.In, Input{Key: keys[i], Cache: rng.Intn(4) != 0})
			}
			want, best := -1, int64(0)
			sums := make([]int64, n)
			for d := range sums {
				for _, in := range w.In {
					if in.Cache {
						sums[d] += held[d][in.Key]
					}
				}
				if sums[d] > best {
					want, best = d, sums[d]
				}
			}
			for d := want + 1; want >= 0 && d < n; d++ {
				if sums[d] == best {
					ties++
					break
				}
			}
			if want < 0 {
				nones++
			}
			if got := mgr.pickGPU(w); got != want {
				t.Fatalf("trial %d: pickGPU = %d, want %d (cached bytes per GPU %v)", trial, got, want, sums)
			}
		})
	}
	if ties == 0 || nones == 0 {
		t.Fatalf("%d trials with a tie for the most bytes and %d with none cached; the tie and -1 rules went unchecked", ties, nones)
	}
	for n := 1; n <= 4; n++ {
		pickManager(t, n, RoundRobin, func(mgr *GStreamManager, mems []*GMemoryManager) {
			buf, err := mems[n-1].Device().Malloc(1<<20, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := CacheKey{JobID: 1}
			if !mems[n-1].Insert(k, buf, 1<<20) {
				t.Fatal("Insert rejected")
			}
			mems[n-1].Release(k)
			w := &GWork{In: []Input{{Key: k, Cache: true}}}
			for i := 0; i < 3*n; i++ {
				if got := mgr.pickGPU(w); got != i%n {
					t.Fatalf("RoundRobin over %d GPUs: pick %d = %d, want %d", n, i, got, i%n)
				}
			}
		})
	}
}
