package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// The GWork lifecycle oracle: the stream worker's step machine against
// the blocking pipeline it replaced, written as a coroutine process on
// the stackful primitives. Both run the same random GWork mix on equal
// deployments, and every GWork must end with the same report, error
// and completion time, the device counters and the final clock equal.

// refRun is the reference stream worker: the consumer loop the step
// machine replaced. It runs each work it is handed, then pulls from the
// GWork Pool until it runs dry, then goes idle on its inbox.
func (sw *streamWorker) refRun() {
	for {
		w, ok := sw.inbox.Get()
		if !ok {
			return
		}
		for w != nil {
			sw.refExec(w)
			w = sw.mgr.nextOrIdle(sw)
		}
	}
}

// refExec drives one GWork through the blocking pipeline: admission,
// then per input the lookup, cudaMalloc with one Reclaim retry, the pin
// and the H2D copy, then the output, launch, D2H and synchronize, the
// inserts, the releases, the free loop and finish.
func (sw *streamWorker) refExec(w *GWork) {
	clock, wr := sw.mgr.clock, sw.mgr.wrapper
	dev, mem := sw.ds.dev, sw.ds.mem
	footprint := w.OutNominal
	for _, in := range w.In {
		footprint += in.Nominal
	}
	footprint = min(footprint, sw.ds.budgetCap)
	if footprint > 0 {
		sw.ds.budget.Acquire(footprint)
		defer sw.ds.budget.Release(footprint)
	}
	malloc := func(nominal int64, real int) (*gpu.Buffer, error) {
		clock.Sleep(wr.charge(callMalloc))
		b, err := dev.Malloc(nominal, real)
		if err != nil {
			mem.Reclaim(nominal)
			clock.Sleep(wr.charge(callMalloc))
			b, err = dev.Malloc(nominal, real)
		}
		return b, err
	}
	devBufs := make([]*gpu.Buffer, len(w.In))
	var acquired []CacheKey
	var toCache []int
	var toFree []*gpu.Buffer
	var hits, misses int
	tStart := clock.Now()
	fail := func(err error) {
		if len(toCache)+len(toFree) > 0 {
			clock.Sleep(wr.charge(callStreamSynchronize))
			if t := clock.Process(); !sw.stream.SynchronizeTask(t) {
				t.Park()
			}
		}
		for _, k := range acquired {
			mem.Release(k)
		}
		for _, i := range toCache {
			clock.Sleep(wr.charge(callFree))
			dev.Free(devBufs[i])
		}
		for _, b := range toFree {
			clock.Sleep(wr.charge(callFree))
			dev.Free(b)
		}
		w.err, w.device = err, dev
		w.report = obs.WorkReport{DeviceID: dev.ID, Worker: dev.Node, QueueWait: tStart - w.submitT,
			CacheHits: hits, CacheMisses: misses, StolenFrom: w.stolenFrom}
		sw.mgr.tracer.Record(sw.ds.queueTrack, "queue", "queue:"+w.ExecuteName, w.submitT, tStart, obs.Int("device", int64(dev.ID)))
		sw.mgr.tracer.Record(sw.track, "gwork", w.ExecuteName, tStart, clock.Now(),
			obs.Int("device", int64(dev.ID)), obs.Int("job", int64(w.JobID)), obs.Str("error", err.Error()))
		w.done.Set()
	}
	for i, in := range w.In {
		if in.Cache {
			if buf, ok := mem.Acquire(in.Key); ok {
				devBufs[i] = buf
				acquired = append(acquired, in.Key)
				hits++
				continue
			}
			misses++
		}
		buf, err := malloc(in.Nominal, len(in.Buf.Bytes()))
		if err != nil {
			fail(fmt.Errorf("allocating input %d of %q: %w", i, w.ExecuteName, err))
			return
		}
		devBufs[i] = buf
		if in.Cache {
			toCache = append(toCache, i)
		} else {
			toFree = append(toFree, buf)
		}
		clock.Sleep(wr.charge(callHostRegister))
		in.Buf.Pin()
		clock.Sleep(wr.charge(callMemcpyH2D))
		if in.Ranges != nil {
			sw.stream.H2DRangesAsync(buf, in.Buf, in.Ranges, in.Nominal)
		} else {
			sw.stream.H2DAsync(buf, in.Buf, in.Nominal)
		}
		sw.ds.cntH2D.Add(in.Nominal)
	}
	out, err := malloc(w.OutNominal, len(w.Out.Bytes()))
	if err != nil {
		fail(fmt.Errorf("allocating output of %q: %w", w.ExecuteName, err))
		return
	}
	toFree = append(toFree, out)
	clock.Sleep(wr.charge(callHostRegister))
	w.Out.Pin()
	sw.tAfterH2D = 0
	sw.stream.Callback(sw.markH2D)
	ctx := &gpu.KernelCtx{In: devBufs, Out: []*gpu.Buffer{out}, N: w.Size, Nominal: w.Nominal,
		GridSize: w.GridSize, BlockSize: w.BlockSize, Args: w.Args}
	if w.Coalesce > 0 {
		ctx.SetCoalesce(w.Coalesce)
	}
	clock.Sleep(wr.charge(callLaunch))
	sw.stream.LaunchAsyncInto(sw.fut, w.ExecuteName, ctx)
	clock.Sleep(wr.charge(callMemcpyD2H))
	sw.stream.D2HAsync(w.Out, out, w.OutNominal)
	sw.ds.cntD2H.Add(w.OutNominal)
	clock.Sleep(wr.charge(callStreamSynchronize))
	if t := clock.Process(); !sw.stream.SynchronizeTask(t) {
		t.Park()
	}
	kernelDur, kerr := sw.fut.Result()
	for _, i := range toCache {
		in := w.In[i]
		if mem.Insert(in.Key, devBufs[i], in.Nominal) {
			acquired = append(acquired, in.Key)
		} else {
			toFree = append(toFree, devBufs[i])
		}
	}
	for _, k := range acquired {
		mem.Release(k)
	}
	for _, b := range toFree {
		clock.Sleep(wr.charge(callFree))
		dev.Free(b)
	}
	tEnd := clock.Now()
	w.report = obs.WorkReport{DeviceID: dev.ID, Worker: dev.Node,
		QueueWait: tStart - w.submitT, H2D: sw.tAfterH2D - tStart, Kernel: kernelDur,
		D2H:       max(tEnd-sw.tAfterH2D-kernelDur, 0),
		CacheHits: hits, CacheMisses: misses, StolenFrom: w.stolenFrom}
	w.err, w.device = kerr, dev
	job := obs.Int("job", int64(w.JobID))
	if kerr != nil {
		sw.mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, tStart, w.report, job, obs.Str("error", kerr.Error()))
	} else {
		sw.mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, tStart, w.report, job)
	}
	w.done.Set()
}

// useReference replaces every stream worker of g with a reference
// worker on the same stream, before g runs. The stepped workers' inboxes
// close, so each of their tasks exits at its first step.
func useReference(g *GFlink) {
	clock := g.Cluster.Clock
	for _, m := range g.Managers {
		for _, ds := range m.Streams.devs {
			for ds.idle.Len() > 0 {
				ds.idle.Pop()
			}
			for i, sw := range ds.streams {
				sw.inbox.Close()
				ref := &streamWorker{mgr: sw.mgr, ds: ds, stream: sw.stream, track: sw.track,
					inbox: vclock.NewQueue[*GWork](clock), fut: sw.fut}
				ref.markH2D = func() { ref.tAfterH2D = clock.Now() }
				ds.streams[i] = ref
				ds.idle.Push(ref)
				clock.Go("ref-"+sw.track, ref.refRun)
			}
		}
	}
}

// lifecycleMix is one decoded fuzz input: a deployment and the GWorks
// each driver submits.
type lifecycleMix struct {
	cfg     Config
	drivers int
	works   []mixWork
}

type mixWork struct {
	driver  int
	delay   time.Duration
	wait    bool // the driver waits for this work before its next submit
	kernel  string
	nominal int64
	out     int64
	in      []mixInput
}

type mixInput struct {
	nominal int64
	cache   bool
	key     CacheKey
	ranges  bool
}

// Nominal size classes: small, large enough to make the cache evict or
// a cudaMalloc reclaim, and larger than a C2050's 3 GiB.
var mixSizes = [8]int64{4 << 10, 1 << 20, 64 << 20, 256 << 20, 1 << 30, 1200 << 20, 2 << 30, 4 << 30}

var mixRegions = [4]int64{256 << 20, 1 << 30, 2500 << 20, 0}

var mixKernels = [4]string{"core_test.double", "core_test.heavy", "core_test.fail", "core_test.unregistered"}

// decodeLifecycle reads a mix from data:
//
//	byte 0: bits 0-1 streams per GPU - 1, bit 2 two GPUs, bit 3 no
//	        stealing, bit 4 host tier, bits 5-6 cache policy (mod 3),
//	        bit 7 round-robin scheduling
//	byte 1: cache region size class (mod 4)
//	byte 2: drivers - 1 (mod 3)
//	then per work: a header byte (bits 0-1 driver, bits 2-3 inputs - 1
//	(mod 3), bits 4-5 kernel, bits 6-7 ms to sleep before submitting),
//	a size byte (bits 0-2 output class, bits 3-5 element class, bit 6
//	wait), and one byte per input (bit 0 cache, bits 1-2 block, bits
//	3-5 size class, bit 6 column ranges, bit 7 second job).
func decodeLifecycle(data []byte) lifecycleMix {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c, region, drivers := next(), next(), next()
	mix := lifecycleMix{
		cfg: Config{
			Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
			GPUsPerWorker:    1 + int(c>>2&1),
			StreamsPerGPU:    1 + int(c&3),
			DisableStealing:  c&8 != 0,
			CachePolicy:      CachePolicy(c >> 5 & 3 % 3),
			Scheduler:        SchedulerPolicy(c >> 7),
			CacheBytesPerJob: mixRegions[region%4],
		},
		drivers: 1 + int(drivers%3),
	}
	if c&16 != 0 {
		mix.cfg.HostTierBytes = 8 << 30
	}
	for len(data) > 0 && len(mix.works) < 48 {
		h, sz := next(), next()
		w := mixWork{
			driver:  int(h&3) % mix.drivers,
			kernel:  mixKernels[h>>4&3],
			delay:   time.Duration(h>>6) * time.Millisecond,
			out:     mixSizes[sz&7],
			nominal: 16 << (3 * (sz >> 3 & 7)),
			wait:    sz&64 != 0,
		}
		for n := 1 + int(h>>2&3)%3; n > 0; n-- {
			b := next()
			w.in = append(w.in, mixInput{
				nominal: mixSizes[b>>3&7],
				cache:   b&1 != 0,
				key:     CacheKey{JobID: 1 + int(b>>7), Block: int(b >> 1 & 3)},
				ranges:  b&64 != 0,
			})
		}
		mix.works = append(mix.works, w)
	}
	return mix
}

// lifecycleOutcome is what a run of a mix must reproduce.
type lifecycleOutcome struct {
	reports []obs.WorkReport
	errs    []string
	done    []time.Duration
	stats   []gpu.Stats
	used    []int64
	metrics []obs.Metric
	spans   []obs.Span
	end     time.Duration
}

// runLifecycle runs mix on a fresh deployment, on the reference workers
// when ref is set.
func runLifecycle(mix lifecycleMix, ref bool) lifecycleOutcome {
	g := New(mix.cfg)
	if ref {
		useReference(g)
	}
	mgr := g.Manager(0).Streams
	out := lifecycleOutcome{
		reports: make([]obs.WorkReport, len(mix.works)),
		errs:    make([]string, len(mix.works)),
		done:    make([]time.Duration, len(mix.works)),
	}
	clock := g.Cluster.Clock
	out.end = g.Run(func() {
		pool := g.Cluster.TaskManagers[0].Pool
		var bufs []*membuf.HBuffer
		for i := 0; i < 4+mix.drivers; i++ {
			bufs = append(bufs, pool.MustAllocate(64))
		}
		defer func() {
			for _, b := range bufs {
				b.Free()
			}
		}()
		works := make([]*GWork, len(mix.works))
		wait := func(i int) {
			if err := works[i].Wait(); err != nil {
				out.errs[i] = err.Error()
			}
			out.reports[i] = works[i].Report()
			out.done[i] = clock.Now()
		}
		grp := vclock.NewGroup(clock)
		for d := 0; d < mix.drivers; d++ {
			grp.Go(fmt.Sprintf("driver%d", d), func() {
				var pending []int
				for i, mw := range mix.works {
					if mw.driver != d {
						continue
					}
					clock.Sleep(mw.delay)
					w := &GWork{ExecuteName: mw.kernel, Size: 16, Nominal: mw.nominal, BlockSize: 256, GridSize: 1,
						Out: bufs[4+d], OutNominal: mw.out, JobID: 1}
					for k, in := range mw.in {
						input := Input{Buf: bufs[k], Nominal: in.nominal, Cache: in.cache, Key: in.key}
						if in.ranges {
							input.Ranges = []gpu.CopyRange{{Off: 8, Len: 16}}
						}
						w.In = append(w.In, input)
					}
					works[i] = w
					mgr.Submit(w)
					if mw.wait {
						wait(i)
					} else {
						pending = append(pending, i)
					}
				}
				for _, i := range pending {
					wait(i)
				}
			})
		}
		grp.Wait()
	})
	for _, dev := range g.Manager(0).Devices {
		out.stats = append(out.stats, dev.Stats())
		out.used = append(out.used, dev.UsedBytes())
	}
	out.metrics = g.Obs.Metrics().Snapshot()
	out.spans = g.Obs.Tracer().Spans()
	return out
}

// checkLifecycle runs data's mix on the stepped and the reference
// workers and fails on the first difference.
func checkLifecycle(t *testing.T, data []byte) {
	mix := decodeLifecycle(data)
	got, want := runLifecycle(mix, false), runLifecycle(mix, true)
	for i := range mix.works {
		if got.reports[i] != want.reports[i] || got.errs[i] != want.errs[i] || got.done[i] != want.done[i] {
			t.Fatalf("work %d: step gives report %+v, error %q, done at %v; reference gives %+v, %q, %v",
				i, got.reports[i], got.errs[i], got.done[i], want.reports[i], want.errs[i], want.done[i])
		}
	}
	if !reflect.DeepEqual(got.stats, want.stats) || !reflect.DeepEqual(got.used, want.used) {
		t.Fatalf("device counters: step %+v used %v, reference %+v used %v", got.stats, got.used, want.stats, want.used)
	}
	if got.end != want.end {
		t.Fatalf("run ends at %v on the step, %v on the reference", got.end, want.end)
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Fatalf("counters: step %v, reference %v", got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.spans, want.spans) {
		t.Fatalf("traces differ: %d spans on the step, %d on the reference", len(got.spans), len(want.spans))
	}
}

// metric returns the counter name's value in o.
func (o lifecycleOutcome) metric(name string) int64 {
	for _, m := range o.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// failed reports whether some work failed with an error containing s.
func (o lifecycleOutcome) failed(s string) bool {
	for _, e := range o.errs {
		if strings.Contains(e, s) {
			return true
		}
	}
	return false
}

// lifecycleSeeds are the committed seed mixes, one per case the fuzzer
// must cover (see decodeLifecycle for the byte layout), each with the
// outcome that shows its case happened.
var lifecycleSeeds = []struct {
	name  string
	data  []byte
	shows func(o lifecycleOutcome) bool
}{
	// Two waited works on one stream: the second hits the block the
	// first cached.
	{"cache-hit-and-miss", []byte{0x00, 3, 0,
		0x00, 0x40, 0x01,
		0x00, 0x40, 0x01},
		func(o lifecycleOutcome) bool {
			return o.metric("cache.hits.gpu0") > 0 && o.metric("cache.misses.gpu0") > 0
		}},
	// Two 1.2 GiB blocks fill the 2500 MiB region and leave 672 MiB
	// of the device free, so a 1 GiB output fails its first cudaMalloc
	// and fits after Reclaim evicts a block.
	{"reclaim-retry", []byte{0x00, 2, 0,
		0x00, 0x40, 0x29,
		0x00, 0x40, 0x2b,
		0x00, 0x44, 0x00},
		func(o lifecycleOutcome) bool { return o.metric("cache.evictions.gpu0") > 0 && o.errs[2] == "" }},
	// A 4 GiB input can never fit a C2050.
	{"device-oom", []byte{0x00, 3, 0,
		0x04, 0x40, 0x01, 0x38},
		func(o lifecycleOutcome) bool { return o.failed("out of device memory") }},
	// A failing kernel and an unregistered one, each after a cached
	// input moved.
	{"failing-kernels", []byte{0x00, 3, 0,
		0x20, 0x40, 0x01,
		0x30, 0x40, 0x03},
		func(o lifecycleOutcome) bool { return o.failed("bad block") && o.failed("not registered") }},
	// Two GPUs with one stream each. A first work caches a block on
	// gpu0; 3 ms later two drivers submit three long kernels each that hit
	// it, so all prefer gpu0: two start at once, four queue on gpu0, and
	// gpu1's stream steals from that queue when it goes idle.
	{"stealing-on", []byte{0x04, 3, 2,
		0x00, 0x40, 0x09,
		0xd1, 0x38, 0x09, 0x11, 0x38, 0x09, 0x11, 0x38, 0x09,
		0xd2, 0x38, 0x09, 0x12, 0x38, 0x09, 0x12, 0x38, 0x09},
		func(o lifecycleOutcome) bool { return o.metric("sched.steals.w0") > 0 }},
	// The same with stealing off.
	{"stealing-off", []byte{0x0c, 3, 2,
		0x00, 0x40, 0x09,
		0xd1, 0x38, 0x09, 0x11, 0x38, 0x09, 0x11, 0x38, 0x09,
		0xd2, 0x38, 0x09, 0x12, 0x38, 0x09, 0x12, 0x38, 0x09},
		func(o lifecycleOutcome) bool {
			return o.metric("sched.pooled.w0") > 0 && o.metric("sched.steals.w0") == 0
		}},
	// Four streams per GPU on two GPUs, projected inputs, round-robin
	// scheduling.
	{"four-streams", []byte{0x87, 3, 1,
		0x04, 0x10, 0x41, 0x40,
		0x05, 0x10, 0x43, 0x42,
		0x04, 0x10, 0x45, 0x44,
		0x05, 0x10, 0x47, 0x46},
		func(o lifecycleOutcome) bool { return len(o.stats) == 2 && o.stats[1].Kernels > 0 }},
	// A host tier with LRU: the third 1.2 GiB block does not fit the
	// 2500 MiB region, so its insert (or the Reclaim before it) demotes
	// the oldest; the fourth work's lookup promotes that one back.
	{"host-tier", []byte{0x50, 2, 0,
		0x00, 0x40, 0x29,
		0x00, 0x40, 0x2b,
		0x00, 0x40, 0x2d,
		0x00, 0x40, 0x29},
		func(o lifecycleOutcome) bool { return o.metric("mem.promotions.gpu0") > 0 }},
}

// TestGWorkLifecycleSeeds checks that each seed mix shows its case and
// runs alike on the step and the reference.
func TestGWorkLifecycleSeeds(t *testing.T) {
	for _, seed := range lifecycleSeeds {
		t.Run(seed.name, func(t *testing.T) {
			if o := runLifecycle(decodeLifecycle(seed.data), false); !seed.shows(o) {
				t.Errorf("the mix does not show its case: errors %q, counters %v", o.errs, o.metrics)
			}
			checkLifecycle(t, seed.data)
		})
	}
}

func FuzzGWorkLifecycle(f *testing.F) {
	for _, seed := range lifecycleSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(checkLifecycle)
}
