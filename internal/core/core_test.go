package core

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
	"gflink/internal/membuf"
)

var f32Schema = gstruct.MustNew("F32", 4, gstruct.Field{Name: "v", Kind: gstruct.Float32})

func init() {
	// doubleF32 multiplies every float32 by two: 1 flop and 8 bytes per
	// element.
	gpu.Register("core_test.double", func(ctx *gpu.KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		for i := 0; i < ctx.N; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(2*v))
		}
		ctx.Charge(costmodel.Work{Flops: float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal), BytesWritten: 4 * float64(ctx.Nominal)})
		return nil
	})
	// heavy is double with a 400x compute charge, used to give kernels
	// transfer-comparable durations in the pipelining test.
	gpu.Register("core_test.heavy", func(ctx *gpu.KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		for i := 0; i < ctx.N; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(2*v))
		}
		ctx.Charge(costmodel.Work{Flops: 400 * float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal), BytesWritten: 4 * float64(ctx.Nominal)})
		return nil
	})
	// sum reduces a block to one float32.
	gpu.Register("core_test.sum", func(ctx *gpu.KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		var s float32
		for i := 0; i < ctx.N; i++ {
			s += math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
		}
		binary.LittleEndian.PutUint32(out, math.Float32bits(s))
		ctx.Charge(costmodel.Work{Flops: float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal)})
		return nil
	})
}

func newGFlink(workers, gpus int) *GFlink {
	return New(Config{
		Config:        flink.Config{Workers: workers, Model: costmodel.Default(), ScaleDivisor: 1},
		GPUsPerWorker: gpus,
	})
}

// regionUsed and regionEntries read a job's cache region on mem: the
// nominal bytes it holds and its entry count, 0 for a job with none.
func regionUsed(mem *GMemoryManager, job int) int64 {
	if r, ok := mem.regions[job]; ok {
		return r.used
	}
	return 0
}

func regionEntries(mem *GMemoryManager, job int) int {
	if r, ok := mem.regions[job]; ok {
		return len(r.entries)
	}
	return 0
}

// submitSimple builds and submits a double-kernel GWork over n float32s.
func submitSimple(g *GFlink, worker, n int, nominal int64, cache bool, key CacheKey) (*GWork, *membuf.HBuffer, *membuf.HBuffer) {
	pool := g.Cluster.TaskManagers[worker].Pool
	in := pool.MustAllocate(4 * n)
	out := pool.MustAllocate(4 * n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
	}
	w := &GWork{
		ExecuteName: "core_test.double",
		Size:        n,
		Nominal:     nominal,
		BlockSize:   256,
		GridSize:    (n + 255) / 256,
		In:          []Input{{Buf: in, Nominal: 4 * nominal, Cache: cache, Key: key}},
		Out:         out,
		OutNominal:  4 * nominal,
		JobID:       key.JobID,
	}
	g.Manager(worker).Streams.Submit(w)
	return w, in, out
}

func TestGWorkEndToEnd(t *testing.T) {
	g := newGFlink(1, 1)
	g.Run(func() {
		w, _, out := submitSimple(g, 0, 100, 100, false, CacheKey{})
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[i*4:]))
			if got != 2*float32(i) {
				t.Fatalf("out[%d] = %v, want %v", i, got, 2*float32(i))
			}
		}
		if w.Device() == nil {
			t.Error("no device recorded")
		}
		rep := w.Report()
		if rep.H2D <= 0 || rep.Kernel <= 0 {
			t.Errorf("timings h2d=%v kernel=%v", rep.H2D, rep.Kernel)
		}
		if rep.DeviceID != w.Device().ID || rep.Worker != 0 {
			t.Errorf("report location = gpu%d/w%d, want gpu%d/w0", rep.DeviceID, rep.Worker, w.Device().ID)
		}
		if rep.StolenFrom != -1 {
			t.Errorf("directly dispatched work reports steal origin %d", rep.StolenFrom)
		}
		// Scratch buffers must be freed afterwards.
		if used := w.Device().UsedBytes(); used != 0 {
			t.Errorf("device leaks %d bytes", used)
		}
	})
}

func TestUnknownKernelFailsWork(t *testing.T) {
	g := newGFlink(1, 1)
	g.Run(func() {
		pool := g.Cluster.TaskManagers[0].Pool
		w := &GWork{
			ExecuteName: "core_test.missing",
			Size:        1, Nominal: 1, BlockSize: 1, GridSize: 1,
			In:  []Input{{Buf: pool.MustAllocate(4), Nominal: 4}},
			Out: pool.MustAllocate(4), OutNominal: 4,
		}
		g.Manager(0).Streams.Submit(w)
		if err := w.Wait(); err == nil {
			t.Error("missing kernel did not fail the work")
		}
	})
}

func TestCacheSkipsSecondTransfer(t *testing.T) {
	g := newGFlink(1, 1)
	g.Run(func() {
		key := CacheKey{JobID: 1, Partition: 0, Block: 0}
		nominal := int64(64 << 20) // 64 Mi elements: transfers dominate
		tBefore := g.Clock.Now()
		w1, in, _ := submitSimple(g, 0, 256, nominal, true, key)
		if err := w1.Wait(); err != nil {
			t.Fatal(err)
		}
		first := g.Clock.Now() - tBefore
		if w1.Report().CacheHits != 0 {
			t.Errorf("first run had %d cache hits", w1.Report().CacheHits)
		}
		if w1.Report().CacheMisses != 1 {
			t.Errorf("first run cache misses = %d, want 1", w1.Report().CacheMisses)
		}
		t0 := g.Clock.Now()
		// Second work over the same cached block.
		pool := g.Cluster.TaskManagers[0].Pool
		out2 := pool.MustAllocate(4 * 256)
		w2 := &GWork{
			ExecuteName: "core_test.double",
			Size:        256, Nominal: nominal, BlockSize: 256, GridSize: 1,
			In:  []Input{{Buf: in, Nominal: 4 * nominal, Cache: true, Key: key}},
			Out: out2, OutNominal: 4 * nominal, JobID: 1,
		}
		g.Manager(0).Streams.Submit(w2)
		if err := w2.Wait(); err != nil {
			t.Fatal(err)
		}
		second := g.Clock.Now() - t0
		if w2.Report().CacheHits != 1 {
			t.Errorf("second run cache hits = %d, want 1", w2.Report().CacheHits)
		}
		// The second run skips the input H2D (roughly half the transfer
		// volume): it must be decisively faster.
		if float64(second) > 0.65*float64(first) {
			t.Errorf("cached run %v vs first run %v: H2D not skipped", second, first)
		}
		mem := g.Manager(0).Streams.Memory(0)
		if regionEntries(mem, 1) != 1 {
			t.Errorf("cache entries = %d", regionEntries(mem, 1))
		}
		g.ReleaseJobCaches(1)
		if regionEntries(mem, 1) != 0 {
			t.Error("ReleaseJobCaches left entries")
		}
		if used := g.Manager(0).Devices[0].UsedBytes(); used != 0 {
			t.Errorf("device leaks %d bytes after release", used)
		}
	})
}

func TestFIFOEviction(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 100,
	})
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		alloc := func() *gpu.Buffer {
			b, err := dev.Malloc(40, 0)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		k1 := CacheKey{JobID: 1, Block: 1}
		k2 := CacheKey{JobID: 1, Block: 2}
		k3 := CacheKey{JobID: 1, Block: 3}
		for _, k := range []CacheKey{k1, k2} {
			if !mem.Insert(k, alloc(), 40) {
				t.Fatalf("insert %v failed", k)
			}
			mem.Release(k)
		}
		// Third insert (40 bytes into a 100-byte region holding 80)
		// evicts the oldest, k1.
		if !mem.Insert(k3, alloc(), 40) {
			t.Fatal("insert k3 failed")
		}
		mem.Release(k3)
		if _, ok := mem.Acquire(k1); ok {
			t.Error("k1 survived FIFO eviction")
		}
		if _, ok := mem.Acquire(k2); !ok {
			t.Error("k2 was evicted out of order")
		} else {
			mem.Release(k2)
		}
		if regionUsed(mem, 1) != 80 {
			t.Errorf("region used = %d, want 80", regionUsed(mem, 1))
		}
		g.ReleaseJobCaches(1)
	})
}

// TestReleaseJobFreesInKeyOrder caches one block under two column sets
// and checks that ReleaseJob frees them in key order, the wider column
// set last, on every repeat. The device's free list hands the buffer
// freed last out first, so the next allocation must reuse the wider
// set's buffer. The wider set is inserted first, so neither insertion
// order nor map order can pass for key order.
func TestReleaseJobFreesInKeyOrder(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 1 << 20,
	})
	mem := g.Manager(0).Streams.Memory(0)
	dev := g.Manager(0).Devices[0]
	alloc := func() *gpu.Buffer {
		b, err := dev.MallocReserve(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		dev.MallocFill(b, 8)
		return b
	}
	narrow := CacheKey{JobID: 1, Block: 3, Cols: gstruct.Cols(0)}
	wide := CacheKey{JobID: 1, Block: 3, Cols: gstruct.Cols(0, 1)}
	for i := 0; i < 50; i++ {
		bufs := map[CacheKey]*gpu.Buffer{}
		for _, k := range []CacheKey{wide, narrow} {
			bufs[k] = alloc()
			if !mem.Insert(k, bufs[k], 64) {
				t.Fatalf("insert %+v failed", k)
			}
			mem.Release(k)
		}
		mem.ReleaseJob(1)
		got := alloc()
		if got != bufs[wide] {
			t.Fatalf("repeat %d: ReleaseJob freed %+v last, want %+v", i, narrow, wide)
		}
		dev.Free(got)
	}
}

func TestStopWhenFullPolicy(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 100,
		CachePolicy:      StopWhenFull,
	})
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		b1, _ := dev.Malloc(60, 0)
		b2, _ := dev.Malloc(60, 0)
		k1 := CacheKey{JobID: 1, Block: 1}
		if !mem.Insert(k1, b1, 60) {
			t.Fatal("first insert failed")
		}
		mem.Release(k1)
		if mem.Insert(CacheKey{JobID: 1, Block: 2}, b2, 60) {
			t.Error("StopWhenFull inserted past capacity")
		}
		if _, ok := mem.Acquire(k1); !ok {
			t.Error("StopWhenFull evicted the resident entry")
		} else {
			mem.Release(k1)
		}
		dev.Free(b2)
		g.ReleaseJobCaches(1)
	})
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	g := New(Config{
		Config:           flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:    1,
		CacheBytesPerJob: 100,
	})
	g.Run(func() {
		mem := g.Manager(0).Streams.Memory(0)
		dev := g.Manager(0).Devices[0]
		b1, _ := dev.Malloc(60, 0)
		k1 := CacheKey{JobID: 1, Block: 1}
		mem.Insert(k1, b1, 60) // stays pinned (refs=1): no Release
		b2, _ := dev.Malloc(60, 0)
		if mem.Insert(CacheKey{JobID: 1, Block: 2}, b2, 60) {
			t.Error("insert evicted a pinned entry")
		}
		dev.Free(b2)
		mem.Release(k1)
		g.ReleaseJobCaches(1)
	})
}

func TestLocalitySchedulingPrefersCachedGPU(t *testing.T) {
	g := newGFlink(1, 2)
	g.Run(func() {
		key := CacheKey{JobID: 7, Partition: 3, Block: 9}
		w1, in, _ := submitSimple(g, 0, 64, 1<<20, true, key)
		if err := w1.Wait(); err != nil {
			t.Fatal(err)
		}
		first := w1.Device()
		// Ten more works over the same cached block: all must land on the
		// device holding the cache.
		pool := g.Cluster.TaskManagers[0].Pool
		for i := 0; i < 10; i++ {
			out := pool.MustAllocate(4 * 64)
			w := &GWork{
				ExecuteName: "core_test.double",
				Size:        64, Nominal: 1 << 20, BlockSize: 256, GridSize: 1,
				In:  []Input{{Buf: in, Nominal: 4 << 20, Cache: true, Key: key}},
				Out: out, OutNominal: 4 << 20, JobID: 7,
			}
			g.Manager(0).Streams.Submit(w)
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if w.Device() != first {
				t.Fatalf("work %d ran on %v, cache lives on %v", i, w.Device().ID, first.ID)
			}
			if w.Report().CacheHits != 1 {
				t.Fatalf("work %d missed the cache", i)
			}
		}
		g.ReleaseJobCaches(7)
	})
}

func TestUncachedWorkSpreadsOverGPUs(t *testing.T) {
	g := newGFlink(1, 2)
	g.Run(func() {
		seen := map[int]int{}
		var works []*GWork
		for i := 0; i < 8; i++ {
			w, _, _ := submitSimple(g, 0, 64, 8<<20, false, CacheKey{})
			works = append(works, w)
		}
		for _, w := range works {
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			seen[w.Device().ID]++
		}
		if len(seen) != 2 {
			t.Errorf("uncached work used %d GPUs, want 2: %v", len(seen), seen)
		}
	})
}

func TestWorkStealingDrainsForeignQueue(t *testing.T) {
	// One worker, two GPUs, one stream each. Cache everything on GPU 0
	// so Algorithm 5.1 targets it; its queue backs up and GPU 1's idle
	// stream must steal.
	g := New(Config{
		Config:        flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker: 2,
		StreamsPerGPU: 1,
	})
	g.Run(func() {
		key := CacheKey{JobID: 1, Partition: 0, Block: 0}
		w0, in, _ := submitSimple(g, 0, 64, 32<<20, true, key)
		if err := w0.Wait(); err != nil {
			t.Fatal(err)
		}
		pool := g.Cluster.TaskManagers[0].Pool
		var works []*GWork
		for i := 0; i < 12; i++ {
			out := pool.MustAllocate(4 * 64)
			w := &GWork{
				ExecuteName: "core_test.double",
				Size:        64, Nominal: 32 << 20, BlockSize: 256, GridSize: 1,
				In:  []Input{{Buf: in, Nominal: 128 << 20, Cache: true, Key: key}},
				Out: out, OutNominal: 128 << 20, JobID: 1,
			}
			g.Manager(0).Streams.Submit(w)
			works = append(works, w)
		}
		devs := map[int]int{}
		for _, w := range works {
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			devs[w.Device().ID]++
		}
		if len(devs) != 2 {
			t.Errorf("stealing did not engage the second GPU: %v", devs)
		}
		if g.Obs.Metrics().Total("sched.steals") == 0 {
			t.Error("no steals recorded")
		}
		g.ReleaseJobCaches(1)
	})
}

func TestStealingDisabledKeepsWorkHome(t *testing.T) {
	g := New(Config{
		Config:          flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker:   2,
		StreamsPerGPU:   1,
		DisableStealing: true,
	})
	g.Run(func() {
		key := CacheKey{JobID: 1, Partition: 0, Block: 0}
		w0, in, _ := submitSimple(g, 0, 64, 32<<20, true, key)
		if err := w0.Wait(); err != nil {
			t.Fatal(err)
		}
		pool := g.Cluster.TaskManagers[0].Pool
		var works []*GWork
		for i := 0; i < 12; i++ {
			out := pool.MustAllocate(4 * 64)
			w := &GWork{
				ExecuteName: "core_test.double",
				Size:        64, Nominal: 32 << 20, BlockSize: 256, GridSize: 1,
				In:  []Input{{Buf: in, Nominal: 128 << 20, Cache: true, Key: key}},
				Out: out, OutNominal: 128 << 20, JobID: 1,
			}
			g.Manager(0).Streams.Submit(w)
			works = append(works, w)
		}
		cacheDev := w0.Device()
		for _, w := range works {
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			// Direct dispatch may still use the idle GPU 1 stream, but
			// pool-queued work must only drain on the cache-owning GPU.
			_ = cacheDev
		}
		if n := g.Obs.Metrics().Total("sched.steals"); n != 0 {
			t.Errorf("stealing disabled but %d steals happened", n)
		}
		g.ReleaseJobCaches(1)
	})
}

func TestRoundRobinPolicyCyclesDevices(t *testing.T) {
	g := New(Config{
		Config:        flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker: 2,
		Scheduler:     RoundRobin,
	})
	g.Run(func() {
		var works []*GWork
		for i := 0; i < 6; i++ {
			w, _, _ := submitSimple(g, 0, 16, 1024, false, CacheKey{})
			works = append(works, w)
		}
		devs := map[int]int{}
		for _, w := range works {
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			devs[w.Device().ID]++
		}
		if devs[0] != 3 || devs[1] != 3 {
			t.Errorf("round robin distribution = %v, want 3/3", devs)
		}
	})
}

func TestNewGDSTBlocking(t *testing.T) {
	g := New(Config{
		Config:        flink.Config{Workers: 2, Model: costmodel.Default(), PageSize: 1024, ScaleDivisor: 4},
		GPUsPerWorker: 1,
	})
	g.Run(func() {
		j := g.Cluster.NewJob("gdst")
		ds := NewGDST(g, j, f32Schema, gstruct.AoS, 40_000, 4, func(part int, v gstruct.View, ord0, step int64) {
			for i := 0; i < v.Len(); i++ {
				ord := ord0 + int64(i)*step
				v.PutFloat32At(i, 0, 0, float32(ord))
			}
		})
		if ds.NominalCount() != 40_000 {
			t.Errorf("nominal = %d", ds.NominalCount())
		}
		blockCap := 1024 / 4
		var realTotal int64
		for p := 0; p < ds.Partitions(); p++ {
			part := ds.Partition(p)
			var nomSum int64
			for _, b := range part.Items {
				if b.N > blockCap {
					t.Fatalf("block of %d elems exceeds page capacity %d", b.N, blockCap)
				}
				realTotal += int64(b.N)
				nomSum += b.Nominal
				if got := b.View().Float32At(0, 0, 0); got < 0 {
					t.Fatal("fill not applied")
				}
			}
			if nomSum != part.Nominal {
				t.Errorf("partition %d block nominals sum to %d, want %d", p, nomSum, part.Nominal)
			}
		}
		if realTotal != 10_000 {
			t.Errorf("real records = %d, want 10000", realTotal)
		}
	})
}

func TestGPUMapPartitionCorrectness(t *testing.T) {
	g := New(Config{
		Config:        flink.Config{Workers: 2, Model: costmodel.Default(), PageSize: 2048, ScaleDivisor: 8},
		GPUsPerWorker: 2,
	})
	g.Run(func() {
		j := g.Cluster.NewJob("map")
		ds := NewGDST(g, j, f32Schema, gstruct.AoS, 16_000, 4, func(part int, v gstruct.View, ord0, step int64) {
			for i := 0; i < v.Len(); i++ {
				ord := ord0 + int64(i)*step
				v.PutFloat32At(i, 0, 0, float32(ord)+0.5)
			}
		})
		out := GPUMapPartition(g, ds, GPUMapSpec{
			Name:      "double",
			Kernel:    "core_test.double",
			OutSchema: f32Schema,
			OutLayout: gstruct.AoS,
		})
		if out.NominalCount() == 0 {
			t.Fatal("no output")
		}
		for p := 0; p < out.Partitions(); p++ {
			inPart, outPart := ds.Partition(p), out.Partition(p)
			for bi, ob := range outPart.Items {
				ib := inPart.Items[bi]
				iv, ov := ib.View(), ob.View()
				for i := 0; i < ib.N; i++ {
					want := 2 * iv.Float32At(i, 0, 0)
					if got := ov.Float32At(i, 0, 0); got != want {
						t.Fatalf("p%d b%d i%d: %v want %v", p, bi, i, got, want)
					}
				}
			}
		}
	})
}

func TestGPUReducePartition(t *testing.T) {
	g := New(Config{
		Config:        flink.Config{Workers: 1, Model: costmodel.Default(), PageSize: 1024, ScaleDivisor: 1},
		GPUsPerWorker: 1,
	})
	g.Run(func() {
		j := g.Cluster.NewJob("reduce")
		const n = 1000
		ds := NewGDST(g, j, f32Schema, gstruct.AoS, n, 2, func(part int, v gstruct.View, ord0, step int64) {
			for i := 0; i < v.Len(); i++ {
				v.PutFloat32At(i, 0, 0, 1.0)
			}
		})
		partials := GPUReducePartition(g, ds, GPUMapSpec{
			Name:      "sum",
			Kernel:    "core_test.sum",
			OutSchema: f32Schema,
			OutLayout: gstruct.AoS,
		}, 1)
		var total float32
		for _, b := range CollectBlocks(partials) {
			total += b.View().Float32At(0, 0, 0)
		}
		if total != n {
			t.Errorf("sum = %v, want %v", total, float32(n))
		}
	})
}

func TestPipeliningBeatsSingleStream(t *testing.T) {
	run := func(streams int) time.Duration {
		g := New(Config{
			Config:        flink.Config{Workers: 1, Model: costmodel.Default(), PageSize: 32768, ScaleDivisor: 1 << 10},
			GPUsPerWorker: 1,
			StreamsPerGPU: streams,
		})
		var elapsed time.Duration
		g.Run(func() {
			j := g.Cluster.NewJob("pipe")
			ds := NewGDST(g, j, f32Schema, gstruct.AoS, 64<<20, 1, func(part int, v gstruct.View, ord0, step int64) {
				for i := 0; i < v.Len(); i++ {
					ord := ord0 + int64(i)*step
					v.PutFloat32At(i, 0, 0, float32(ord))
				}
			})
			t0 := g.Clock.Now()
			GPUMapPartition(g, ds, GPUMapSpec{
				Name: "heavy", Kernel: "core_test.heavy",
				OutSchema: f32Schema, OutLayout: gstruct.AoS,
			})
			elapsed = g.Clock.Now() - t0
		})
		return elapsed
	}
	single, multi := run(1), run(4)
	if float64(multi) > 0.8*float64(single) {
		t.Errorf("pipelining gained too little: 1 stream %v vs 4 streams %v", single, multi)
	}
}

func TestCloseWithQueuedWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Close with queued work did not panic")
		}
	}()
	g := New(Config{
		Config:        flink.Config{Workers: 1, Model: costmodel.Default()},
		GPUsPerWorker: 1,
		StreamsPerGPU: 1,
	})
	g.Clock.Run(func() {
		// Saturate the single stream, then queue extra work and close
		// immediately.
		var works []*GWork
		for i := 0; i < 6; i++ {
			w, _, _ := submitSimple(g, 0, 64, 256<<20, false, CacheKey{})
			works = append(works, w)
		}
		g.Close() // must panic: pool almost surely non-empty
		for _, w := range works {
			w.Wait()
		}
	})
}
