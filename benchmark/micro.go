package main

import (
	"encoding/binary"
	"math"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// microbenchmarks times one public entry point of each layer on the hot
// path, in host nanoseconds per call. Each runs a fixed number of calls
// on a fresh, single-purpose set-up, so its number depends on nothing
// but that entry point.
func microbenchmarks() map[string]float64 {
	return map[string]float64{
		"layer.vclock.sleep_ns":             microSleep(200_000),
		"layer.vclock.sem_handoff_ns":       microSemHandoff(50_000),
		"layer.gpu.launch_ns":               microLaunch(100_000),
		"layer.core.gwork_ns":               microGWork(20_000),
		"layer.memmgr.acquire_hit_ns":       microAcquireHit(500_000),
		"layer.obs.record_ns":               microRecord(500_000),
		"layer.kernels.kmeans_ns_per_point": microKMeans(4),
		"layer.gstruct.put_ns":              microPut(2_000_000),
	}
}

// perCall times fn and divides by the calls it made.
func perCall(calls int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// microSleep: one process sleeping and waking on the virtual clock.
func microSleep(n int) float64 {
	clock := vclock.New()
	return perCall(n, func() {
		clock.Run(func() {
			for i := 0; i < n; i++ {
				clock.Sleep(time.Microsecond)
			}
		})
	})
}

// microSemHandoff: two processes contending for a one-slot semaphore, so
// every acquire waits for the other's release.
func microSemHandoff(n int) float64 {
	clock := vclock.New()
	sem := vclock.NewSemaphore(clock, "micro", 1)
	return perCall(2*n, func() {
		clock.Run(func() {
			grp := vclock.NewGroup(clock)
			for p := 0; p < 2; p++ {
				grp.Go("contender", func() {
					for i := 0; i < n; i++ {
						sem.Acquire(1)
						clock.Sleep(time.Microsecond)
						sem.Release(1)
					}
				})
			}
			grp.Wait()
		})
	})
}

// microLaunch: synchronous launches of the 64-element doubling kernel.
func microLaunch(n int) float64 {
	clock := vclock.New()
	model := costmodel.Default()
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	var ns float64
	clock.Run(func() {
		defer dev.Close()
		in, err := dev.Malloc(4*gworkElems, 4*gworkElems)
		if err != nil {
			panic(err)
		}
		out, err := dev.Malloc(4*gworkElems, 4*gworkElems)
		if err != nil {
			panic(err)
		}
		ctx := &gpu.KernelCtx{}
		ns = perCall(n, func() {
			for i := 0; i < n; i++ {
				*ctx = gpu.KernelCtx{In: []*gpu.Buffer{in}, Out: []*gpu.Buffer{out}, N: gworkElems, Nominal: gworkElems, GridSize: 1, BlockSize: 64}
				if _, err := dev.Launch(doubleKernel, ctx); err != nil {
					panic(err)
				}
			}
		})
		dev.Free(in)
		dev.Free(out)
	})
	return ns
}

// microGWork: Submit and Wait of one GWork whose input is cached, on a
// one-device stream manager with counters on and tracing off.
func microGWork(n int) float64 {
	clock := vclock.New()
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10)
	mgr := core.NewStreamManager(core.StreamConfig{
		Clock:    clock,
		Wrapper:  wrapper,
		Memories: []*core.GMemoryManager{mem},
		Metrics:  obs.NewRegistry(),
	})
	pool := membuf.NewPool(clock, model, membuf.Config{})
	in := pool.MustAllocate(4 * gworkElems)
	out := pool.MustAllocate(4 * gworkElems)
	defer in.Free()
	defer out.Free()
	var ns float64
	clock.Run(func() {
		defer dev.Close()
		defer mgr.Close()
		ns = perCall(n, func() {
			for i := 0; i < n; i++ {
				if err := doubleOnGPU(mgr, in, out, core.CacheKey{JobID: gworkJob}); err != nil {
					panic(err)
				}
			}
		})
		mem.ReleaseJob(gworkJob)
	})
	return ns
}

// microAcquireHit: Acquire and Release of a resident cache entry.
func microAcquireHit(n int) float64 {
	clock := vclock.New()
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10)
	key := core.CacheKey{JobID: gworkJob}
	var ns float64
	clock.Run(func() {
		defer dev.Close()
		buf, err := dev.Malloc(gworkNominal, 4*gworkElems)
		if err != nil {
			panic(err)
		}
		if !mem.Insert(key, buf, gworkNominal) {
			panic("micro: cache insert refused")
		}
		mem.Release(key)
		ns = perCall(n, func() {
			for i := 0; i < n; i++ {
				if _, ok := mem.Acquire(key); !ok {
					panic("micro: resident key missed")
				}
				mem.Release(key)
			}
		})
		mem.ReleaseJob(gworkJob)
	})
	return ns
}

// microRecord: Record on an enabled tracer with room reserved, so the
// number is the recording itself and not slice growth.
func microRecord(n int) float64 {
	clock := vclock.New()
	tr := obs.NewTracer()
	tr.Reserve(n)
	now := clock.Now()
	return perCall(n, func() {
		for i := 0; i < n; i++ {
			tr.Record("micro", "micro", "record", now, now)
		}
	})
}

// microKMeans: the assign kernel body over a 64k-point SoA block with
// the KMeans workloads' k=10, d=20, per point.
func microKMeans(reps int) float64 {
	const points, k, d = 1 << 16, 10, 20
	clock := vclock.New()
	model := costmodel.Default()
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	fn, ok := gpu.Lookup(kernels.KMeansAssignKernel)
	if !ok {
		panic("micro: kmeans kernel not registered")
	}
	var ns float64
	clock.Run(func() {
		defer dev.Close()
		pts, err1 := dev.Malloc(4*points*d, 4*points*d)
		cents, err2 := dev.Malloc(4*k*d, 4*k*d)
		out, err3 := dev.Malloc(4*k*(d+1), 4*k*(d+1))
		if err1 != nil || err2 != nil || err3 != nil {
			panic("micro: device allocation failed")
		}
		for i := 0; i < points*d; i++ {
			binary.LittleEndian.PutUint32(pts.Bytes()[4*i:], math.Float32bits(float32(splitmix64(1, uint64(i))>>40)/(1<<24)))
		}
		for i := 0; i < k*d; i++ {
			binary.LittleEndian.PutUint32(cents.Bytes()[4*i:], math.Float32bits(float32(i%k)/k))
		}
		ctx := &gpu.KernelCtx{}
		ns = perCall(reps*points, func() {
			for r := 0; r < reps; r++ {
				*ctx = gpu.KernelCtx{In: []*gpu.Buffer{pts, cents}, Out: []*gpu.Buffer{out}, N: points, Nominal: points, Args: []int64{k, d}}
				if err := fn(ctx); err != nil {
					panic(err)
				}
			}
		})
		dev.Free(pts)
		dev.Free(cents)
		dev.Free(out)
	})
	return ns
}

// microPut: PutFloat32At across a SoA view of 20-coordinate points.
func microPut(n int) float64 {
	const d = 20
	schema := kernels.PointSchema(d)
	elems := n / d
	v := gstruct.MustView(schema, gstruct.SoA, make([]byte, schema.Size(gstruct.SoA, elems)), elems)
	return perCall(elems*d, func() {
		for i := 0; i < elems; i++ {
			for j := 0; j < d; j++ {
				v.PutFloat32At(i, j, 0, float32(i+j))
			}
		}
	})
}
