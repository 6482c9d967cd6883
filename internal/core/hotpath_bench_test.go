package core

import (
	"encoding/binary"
	"math"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// runHotPath builds a tracing-off single-GPU deployment (counters stay
// on, as in every real deployment) and calls body inside clock.Run with
// the deployment's clock and one, which drives one GWork through the full submit/exec/complete hot
// path. With cached set, the GWork's input is cache-flagged, so every
// GWork after the first picks the GPU by its cached bytes and hits.
func runHotPath(tb testing.TB, cached bool, body func(clock *vclock.Clock, one func())) {
	clock := vclock.New()
	model := costmodel.Default()
	wrapper := NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10, WithPolicy(EvictFIFO))
	mgr := NewStreamManager(StreamConfig{
		Clock:    clock,
		Wrapper:  wrapper,
		Memories: []*GMemoryManager{mem},
		Metrics:  obs.NewRegistry(),
	})
	pool := membuf.NewPool(clock, model, membuf.Config{})
	const n = 64
	var kerr error
	clock.Run(func() {
		in := pool.MustAllocate(4 * n)
		out := pool.MustAllocate(4 * n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
		}
		wp := mgr.Pool()
		body(clock, func() {
			if kerr != nil {
				return
			}
			w := wp.Get()
			w.ExecuteName = "core_test.double"
			w.Size = n
			w.Nominal = n
			w.BlockSize = 256
			w.GridSize = 1
			w.In = append(w.In, Input{Buf: in, Nominal: 4 * n, Cache: cached, Key: CacheKey{JobID: 1}})
			w.Out = out
			w.OutNominal = 4 * n
			mgr.Submit(w)
			kerr = w.Wait()
			wp.Put(w)
		})
		mgr.Close()
		dev.Close()
	})
	if kerr != nil {
		tb.Fatal(kerr)
	}
}

// BenchmarkHotPath1MGWorks times the GWork hot path; one benchmark op
// is one GWork. With -benchmem, allocs/op is the per-GWork allocation
// count that TestHotPathZeroAllocsPerGWork pins at 0, and
// `-benchtime=1000000x` reproduces the 1M-GWork sweep.
func BenchmarkHotPath1MGWorks(b *testing.B) {
	runHotPath(b, false, func(_ *vclock.Clock, one func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one()
		}
	})
}

// TestHotPathZeroAllocsPerGWork pins DESIGN.md invariant 10: once the
// free lists are warm, a GWork costs no heap allocation at all on the
// tracing-off path — pool shells, vclock parks, stream commands, launch
// futures and device buffers are all recycled.
func TestHotPathZeroAllocsPerGWork(t *testing.T) {
	if allocs := hotPathAllocs(t, false); allocs != 0 {
		t.Fatalf("%.2f heap allocations per GWork at steady state, want 0", allocs)
	}
}

// TestHotPathZeroAllocsPerCachedGWork pins the same for a GWork whose
// input hits the device cache: pickGPU's key scratch, the lookup, the
// pin and its release.
func TestHotPathZeroAllocsPerCachedGWork(t *testing.T) {
	if allocs := hotPathAllocs(t, true); allocs != 0 {
		t.Fatalf("%.2f heap allocations per cached GWork at steady state, want 0", allocs)
	}
}

// hotPathAllocs returns the steady-state heap allocations per GWork.
func hotPathAllocs(t *testing.T, cached bool) (allocs float64) {
	runHotPath(t, cached, func(_ *vclock.Clock, one func()) {
		for i := 0; i < 256; i++ {
			one()
		}
		allocs = testing.AllocsPerRun(10000, one)
	})
	return allocs
}

// TestHotPathParksPerGWork pins the coroutine switches a GWork costs at
// steady state: 1, the driver's Wait. The gstream worker and the GPU
// stream executors are vclock tasks, stepped in place without a park,
// and with no host tier the worker never borrows a stack for Task.Call.
func TestHotPathParksPerGWork(t *testing.T) {
	const works = 1000
	var parks uint64
	runHotPath(t, false, func(clock *vclock.Clock, one func()) {
		for i := 0; i < 256; i++ {
			one()
		}
		before := clock.Parks()
		for i := 0; i < works; i++ {
			one()
		}
		parks = clock.Parks() - before
	})
	if parks != works {
		t.Fatalf("%.2f parks per GWork at steady state, want 1", float64(parks)/works)
	}
}
