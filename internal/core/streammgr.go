package core

import (
	"fmt"
	"time"

	"gflink/internal/gpu"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// SchedulerPolicy selects how Submit picks a GPU for a GWork.
type SchedulerPolicy int

const (
	// LocalityAware is Algorithm 5.1: prefer the GPU holding the most
	// cached input bytes.
	LocalityAware SchedulerPolicy = iota
	// RoundRobin ignores locality (the ablation baseline).
	RoundRobin
)

// GStreamManager is one worker's streaming dataflow engine (Section 5):
// it owns the GWork Scheduler, the GWork Pool (one FIFO queue per GPU)
// and the GStream Pool (one bulk of streams per GPU). TaskManager tasks
// produce GWork via Submit; stream workers consume it, each executing
// the three-stage H2D / kernel / D2H pipeline on its own CUDA stream.
type GStreamManager struct {
	clock    *vclock.Clock
	wrapper  *CUDAWrapper
	policy   SchedulerPolicy
	stealing bool
	tracer   *obs.Tracer
	metrics  *obs.Registry
	node     int // worker index, used in metric names
	// workPool recycles GWork shells across submissions (Section 3.5.3's
	// GWork objects are short-lived and per-block; recycling keeps the
	// producer side of the pipeline allocation-free).
	workPool *WorkPool
	// Preregistered per-worker counter handles, so the scheduling hot
	// path never formats strings or hashes a name.
	cntDirect, cntPooled, cntSteals *obs.Counter

	devs []*deviceState
	rr   int // round-robin cursor
	// scratchKeys is the reusable cache-key scratch of pickGPU.
	scratchKeys []CacheKey
}

type deviceState struct {
	idx     int
	dev     *gpu.Device
	mem     *GMemoryManager
	queue   vclock.FIFO[*GWork]        // this GPU's FIFO queue in the GWork Pool
	idle    vclock.FIFO[*streamWorker] // idle streams of this bulk
	streams []*streamWorker
	// cntH2D and cntD2H are the preregistered per-device transfer
	// counters ("xfer.h2d.bytes.gpuN" / "xfer.d2h.bytes.gpuN").
	cntH2D, cntD2H *obs.Counter
	// queueTrack is the trace track carrying this device's queue-wait
	// spans (kept off the stream tracks so parked work never overlaps
	// an executing span).
	queueTrack string
	// budget bounds the transient device memory of in-flight works
	// (device capacity minus the cache region), so concurrent streams
	// backpressure instead of running the device out of memory.
	budget    *vclock.Semaphore
	budgetCap int64
}

type streamWorker struct {
	mgr    *GStreamManager
	ds     *deviceState
	stream *gpu.Stream
	inbox  *vclock.Queue[*GWork]
	track  string // trace track of this stream's pipeline spans

	// Per-stream execution scratch, reused across the works this
	// (single-process) stream executes so the three-stage pipeline is
	// allocation-free at steady state. Reset by exec before each work.
	devBufs  []*gpu.Buffer
	acquired []CacheKey
	toCache  []int
	toFree   []*gpu.Buffer
	ctx      gpu.KernelCtx
	outArr   [1]*gpu.Buffer
	// tAfterH2D is the H2D-complete milestone of the current work,
	// written by the prebuilt markH2D callback (one closure per stream,
	// not per work; safe because a stream runs one work at a time).
	tAfterH2D time.Duration
	markH2D   func()
	// fut is the reusable launch future (one per stream, not per work;
	// safe because exec waits on each launch before issuing the next).
	fut *gpu.Future
}

// StreamConfig configures a GStreamManager. Clock, Wrapper and
// Memories are required; the zero value of every other field selects
// the default — 4 streams per GPU, Algorithm 5.1 scheduling, stealing
// enabled, no tracing.
type StreamConfig struct {
	Clock   *vclock.Clock
	Wrapper *CUDAWrapper
	// Memories holds one GMemoryManager per device of this worker.
	Memories []*GMemoryManager
	// StreamsPerGPU sizes each GStream Pool bulk (0 means 4).
	StreamsPerGPU int
	// Policy selects Algorithm 5.1 (default) or the RoundRobin ablation.
	Policy SchedulerPolicy
	// NoStealing disables Algorithm 5.2 (the zero value keeps it on).
	NoStealing bool
	// Tracer, when set, receives a span tree per executed GWork.
	Tracer *obs.Tracer
	// Metrics, when set, receives the scheduler counters and every
	// device's cache counters.
	Metrics *obs.Registry
}

// NewStreamManager builds the manager from cfg. StreamsPerGPU streams
// are created per device; all start idle.
func NewStreamManager(cfg StreamConfig) *GStreamManager {
	if cfg.StreamsPerGPU <= 0 {
		cfg.StreamsPerGPU = 4
	}
	m := &GStreamManager{
		clock: cfg.Clock, wrapper: cfg.Wrapper,
		policy: cfg.Policy, stealing: !cfg.NoStealing,
		tracer: cfg.Tracer, metrics: cfg.Metrics,
		workPool: NewWorkPool(cfg.Clock),
	}
	if len(cfg.Memories) > 0 {
		m.node = cfg.Memories[0].Device().Node
	}
	m.cntDirect = m.metrics.Counter(obs.SchedDirect, m.node)
	m.cntPooled = m.metrics.Counter(obs.SchedPooled, m.node)
	m.cntSteals = m.metrics.Counter(obs.SchedSteals, m.node)
	for i, mem := range cfg.Memories {
		mem.observe(cfg.Metrics, cfg.Tracer)
		budgetCap := mem.Device().Profile.MemBytes - mem.RegionCap()
		if min := mem.Device().Profile.MemBytes / 4; budgetCap < min {
			budgetCap = min
		}
		ds := &deviceState{
			idx: i, dev: mem.Device(), mem: mem,
			queueTrack: fmt.Sprintf("w%d/gpu%d/queue", mem.Device().Node, i),
			budget:     vclock.NewSemaphore(cfg.Clock, fmt.Sprintf("gpu%d-membudget", mem.Device().ID), budgetCap),
			budgetCap:  budgetCap,
			cntH2D:     m.metrics.Counter(obs.XferH2DBytes, mem.Device().ID),
			cntD2H:     m.metrics.Counter(obs.XferD2HBytes, mem.Device().ID),
		}
		for s := 0; s < cfg.StreamsPerGPU; s++ {
			sw := &streamWorker{
				mgr: m,
				ds:  ds,
				// Streams are created at deployment startup, before any
				// measured job, so no control-channel time is charged.
				stream: mem.Device().NewStream(cfg.Wrapper.model.CPU),
				inbox:  vclock.NewQueue[*GWork](cfg.Clock),
				track:  fmt.Sprintf("w%d/gpu%d/s%d", mem.Device().Node, i, s),
			}
			sw.markH2D = func() { sw.tAfterH2D = sw.mgr.clock.Now() }
			sw.fut = gpu.NewFuture(cfg.Clock)
			ds.streams = append(ds.streams, sw)
			ds.idle.Push(sw)
			cfg.Clock.Go(fmt.Sprintf("gstream-w%d-g%d-s%d", mem.Device().Node, i, s), sw.run)
		}
		m.devs = append(m.devs, ds)
	}
	return m
}

// Devices returns the number of GPUs managed.
func (m *GStreamManager) Devices() int { return len(m.devs) }

// Memory returns device i's GMemoryManager.
func (m *GStreamManager) Memory(i int) *GMemoryManager { return m.devs[i].mem }

// Pool returns the manager's GWork recycling pool. Producers may Get
// shells from it instead of allocating; a Get'd shell must come back
// via Put once its completion event has been consumed.
func (m *GStreamManager) Pool() *WorkPool { return m.workPool }

// Close stops every stream worker by closing its inbox. Close must
// only be called once all outstanding work has completed: it panics if
// any GWork is still queued in the GWork Pool, since work parked there
// would otherwise be silently dropped.
func (m *GStreamManager) Close() {
	for _, ds := range m.devs {
		if ds.queue.Len() > 0 {
			panic("core: GStreamManager.Close with queued GWork")
		}
	}
	for _, ds := range m.devs {
		for _, sw := range ds.streams {
			sw.inbox.Close()
		}
	}
}

// Submit schedules w per Algorithm 5.1. It never blocks the producer:
// when every stream is busy the work parks in the GWork Pool.
//
//gflink:hotpath
func (m *GStreamManager) Submit(w *GWork) {
	if w.done == nil {
		//gflink:allow-alloc unpooled submission; WorkPool shells arrive with their event preset
		w.done = vclock.NewEvent(m.clock)
	}
	w.submitT = m.clock.Now()
	w.stolenFrom = -1
	gid := m.pickGPU(w)

	var sw *streamWorker
	if gid >= 0 && m.devs[gid].idle.Len() > 0 {
		// Line 6: an idle stream on the locality-preferred GPU.
		sw = m.popIdle(gid)
	} else {
		// Lines 3-4 / 8-9: the bulk with the most idle streams.
		if b := m.bulkWithMostIdle(); b >= 0 {
			sw = m.popIdle(b)
		}
	}
	if sw == nil {
		// Lines 11-18: no idle stream anywhere; park in the pool.
		q := gid
		if q < 0 {
			q = m.queueWithLeastWork()
		}
		m.devs[q].queue.Push(w)
		m.cntPooled.Add(1)
		return
	}
	m.cntDirect.Add(1)
	sw.inbox.Put(w)
}

// pickGPU implements the GMemoryManager consultation of
// Algorithm 5.1: the GPU with the biggest sum of the work's cached
// input bytes resident in device memory, or -1 when nothing is cached
// anywhere (GID null). Under RoundRobin it cycles through devices.
//
//gflink:hotpath
func (m *GStreamManager) pickGPU(w *GWork) int {
	if m.policy == RoundRobin {
		gid := m.rr % len(m.devs)
		m.rr++
		return gid
	}
	keys := m.scratchKeys[:0]
	for _, in := range w.In {
		if in.Cache {
			//gflink:allow-alloc amortized growth of the key scratch, reused across submissions
			keys = append(keys, in.Key)
		}
	}
	m.scratchKeys = keys
	if len(keys) == 0 {
		return -1
	}
	best, bestBytes := -1, int64(0)
	for i, ds := range m.devs {
		if n := ds.mem.CachedBytes(keys); n > bestBytes {
			best, bestBytes = i, n
		}
	}
	return best
}

//gflink:hotpath
func (m *GStreamManager) popIdle(gid int) *streamWorker {
	sw, _ := m.devs[gid].idle.Pop()
	return sw
}

//gflink:hotpath
func (m *GStreamManager) bulkWithMostIdle() int {
	best, most := -1, 0
	for i, ds := range m.devs {
		if ds.idle.Len() > most {
			best, most = i, ds.idle.Len()
		}
	}
	return best
}

//gflink:hotpath
func (m *GStreamManager) queueWithLeastWork() int {
	best, least := 0, int(^uint(0)>>1)
	for i, ds := range m.devs {
		if ds.queue.Len() < least {
			best, least = i, ds.queue.Len()
		}
	}
	return best
}

// steal implements Algorithm 5.2 for a stream of GPU gid: first
// the GPU's own queue, then (when stealing is enabled) the queue with
// the most pending GWork.
//
//gflink:hotpath
func (m *GStreamManager) steal(gid int) *GWork {
	if w, ok := m.devs[gid].queue.Pop(); ok {
		return w
	}
	if !m.stealing {
		return nil
	}
	best, most := -1, 0
	for i, ds := range m.devs {
		if ds.queue.Len() > most {
			best, most = i, ds.queue.Len()
		}
	}
	if best < 0 {
		return nil
	}
	w, _ := m.devs[best].queue.Pop()
	w.stolenFrom = m.devs[best].dev.ID
	m.cntSteals.Add(1)
	return w
}

// nextOrIdle either takes more work for sw or parks it on the idle
// list. Nothing between the check and the park blocks, so no submission
// can fall between them.
//
//gflink:hotpath
func (m *GStreamManager) nextOrIdle(sw *streamWorker) *GWork {
	if w := m.steal(sw.ds.idx); w != nil {
		return w
	}
	sw.ds.idle.Push(sw)
	return nil
}

// run is a stream worker's consumer loop: execute directly handed work,
// then keep pulling from the GWork Pool until it runs dry, then go
// idle. (This is the event-driven equivalent of the paper's periodic
// Stealing poll with an idle-timeout thread release.)
//
//gflink:hotpath
func (sw *streamWorker) run() {
	for {
		w, ok := sw.inbox.Get()
		if !ok {
			return
		}
		for w != nil {
			sw.exec(w)
			w = sw.mgr.nextOrIdle(sw)
		}
	}
}

// scratchBufs prepares the per-stream scratch for a work with n inputs
// and returns the zeroed device-buffer slot slice. The scratch slices
// only grow to the widest work this stream has seen, so steady-state
// executions reuse them allocation-free.
//
//gflink:hotpath
func (sw *streamWorker) scratchBufs(n int) []*gpu.Buffer {
	if cap(sw.devBufs) < n {
		//gflink:allow-alloc scratch growth to the widest GWork this stream has seen
		sw.devBufs = make([]*gpu.Buffer, n)
	}
	s := sw.devBufs[:n]
	for i := range s {
		s[i] = nil
	}
	sw.acquired = sw.acquired[:0]
	sw.toCache = sw.toCache[:0]
	sw.toFree = sw.toFree[:0]
	return s
}

// malloc allocates device memory with a cache-reclaim fallback: when
// device memory is tight, evict unpinned cache entries and retry once.
//
//gflink:hotpath
func (sw *streamWorker) malloc(nominal int64, real int) (*gpu.Buffer, error) {
	b, err := sw.mgr.wrapper.Malloc(sw.ds.dev, nominal, real)
	if err != nil {
		//gflink:allow-alloc cache-reclaim retry: memory-pressure cold path
		sw.ds.mem.Reclaim(nominal)
		b, err = sw.mgr.wrapper.Malloc(sw.ds.dev, nominal, real)
	}
	return b, err
}

// fail completes w with err after releasing pins and freeing every
// device buffer allocated so far, including the inputs that missed the
// cache and were waiting to be inserted. A failed work still queued
// and still occupied the stream, so the trace records the queue wait
// and a failed gwork span instead of a hole where the work died.
func (sw *streamWorker) fail(w *GWork, tStart time.Duration, cacheHits, cacheMisses int, err error) {
	mgr := sw.mgr
	dev := sw.ds.dev
	for _, k := range sw.acquired {
		sw.ds.mem.Release(k)
	}
	for _, i := range sw.toCache {
		mgr.wrapper.Free(dev, sw.devBufs[i])
	}
	for _, b := range sw.toFree {
		mgr.wrapper.Free(dev, b)
	}
	w.err = err
	w.device = dev
	w.report = obs.WorkReport{
		DeviceID: dev.ID, Worker: dev.Node,
		QueueWait:   tStart - w.submitT,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
		StolenFrom:  w.stolenFrom,
	}
	mgr.tracer.Record(sw.ds.queueTrack, "queue", "queue:"+w.ExecuteName,
		w.submitT, tStart, obs.Int("device", int64(dev.ID)))
	mgr.tracer.Record(sw.track, "gwork", w.ExecuteName,
		tStart, mgr.clock.Now(),
		obs.Int("device", int64(dev.ID)),
		obs.Int("job", int64(w.JobID)),
		obs.Str("error", err.Error()))
	w.done.Set()
}

// exec runs one GWork through the three-stage pipeline on this stream.
//
//gflink:hotpath
func (sw *streamWorker) exec(w *GWork) {
	mgr := sw.mgr
	dev := sw.ds.dev
	mem := sw.ds.mem
	wr := mgr.wrapper

	// Admission control: reserve the work's worst-case transient device
	// memory atomically so concurrent streams throttle instead of
	// failing allocations mid-flight.
	footprint := w.OutNominal
	for _, in := range w.In {
		footprint += in.Nominal
	}
	if footprint > sw.ds.budgetCap {
		footprint = sw.ds.budgetCap
	}
	if footprint > 0 {
		sw.ds.budget.Acquire(footprint)
		defer sw.ds.budget.Release(footprint)
	}

	devBufs := sw.scratchBufs(len(w.In))
	var cacheHits, cacheMisses int

	tStart := mgr.clock.Now()
	// Stage 1: host-to-device input transfers, skipping cache hits.
	for i, in := range w.In {
		if in.Cache {
			if buf, ok := mem.Acquire(in.Key); ok {
				devBufs[i] = buf
				//gflink:allow-alloc amortized growth of the pin scratch
				sw.acquired = append(sw.acquired, in.Key)
				cacheHits++
				continue
			}
			cacheMisses++
		}
		buf, err := sw.malloc(in.Nominal, len(in.Buf.Bytes()))
		if err != nil {
			//gflink:allow-alloc failure diagnostic: cold path that ends the work
			sw.fail(w, tStart, cacheHits, cacheMisses, fmt.Errorf("allocating input %d of %q: %w", i, w.ExecuteName, err))
			return
		}
		devBufs[i] = buf
		if in.Cache {
			//gflink:allow-alloc amortized growth of the cache-insert scratch
			sw.toCache = append(sw.toCache, i)
		} else {
			//gflink:allow-alloc amortized growth of the free-list scratch
			sw.toFree = append(sw.toFree, buf)
		}
		wr.HostRegister(in.Buf)
		if in.Ranges != nil {
			// Column projection: ship only the referenced byte ranges,
			// charged at the (projected) nominal volume.
			wr.MemcpyH2DRangesAsync(sw.stream, buf, in.Buf, in.Ranges, in.Nominal)
		} else {
			wr.MemcpyH2DAsync(sw.stream, buf, in.Buf, in.Nominal)
		}
		sw.ds.cntH2D.Add(in.Nominal)
	}

	outBuf, err := sw.malloc(w.OutNominal, len(w.Out.Bytes()))
	if err != nil {
		//gflink:allow-alloc failure diagnostic: cold path that ends the work
		sw.fail(w, tStart, cacheHits, cacheMisses, fmt.Errorf("allocating output of %q: %w", w.ExecuteName, err))
		return
	}
	//gflink:allow-alloc amortized growth of the free-list scratch
	sw.toFree = append(sw.toFree, outBuf)
	wr.HostRegister(w.Out)

	sw.tAfterH2D = 0
	sw.stream.Callback(sw.markH2D)

	// Stage 2: kernel execution, on the stream's reusable launch
	// context (safe: a stream runs one work at a time, and exec waits
	// on the launch future before returning).
	sw.outArr[0] = outBuf
	ctx := &sw.ctx
	*ctx = gpu.KernelCtx{
		In:        devBufs,
		Out:       sw.outArr[:],
		N:         w.Size,
		Nominal:   w.Nominal,
		GridSize:  w.GridSize,
		BlockSize: w.BlockSize,
		Args:      w.Args,
	}
	if w.Coalesce > 0 {
		ctx.SetCoalesce(w.Coalesce)
	}
	wr.LaunchAsyncInto(sw.stream, sw.fut, w.ExecuteName, ctx)

	// Stage 3: device-to-host output transfer.
	wr.MemcpyD2HAsync(sw.stream, w.Out, outBuf, w.OutNominal)
	sw.ds.cntD2H.Add(w.OutNominal)
	wr.StreamSynchronize(sw.stream)
	kernelDur, kerr := sw.fut.Wait()

	// Post-execution bookkeeping: cache fresh inputs, then drop pins and
	// scratch allocations.
	for _, i := range sw.toCache {
		in := w.In[i]
		if mem.Insert(in.Key, devBufs[i], in.Nominal) {
			//gflink:allow-alloc amortized growth of the pin scratch
			sw.acquired = append(sw.acquired, in.Key)
		} else {
			//gflink:allow-alloc amortized growth of the free-list scratch
			sw.toFree = append(sw.toFree, devBufs[i])
		}
	}
	for _, k := range sw.acquired {
		mem.Release(k)
	}
	for _, b := range sw.toFree {
		wr.Free(dev, b)
	}

	tEnd := mgr.clock.Now()
	tAfterH2D := sw.tAfterH2D
	d2h := tEnd - tAfterH2D - kernelDur
	if d2h < 0 {
		d2h = 0
	}
	w.report = obs.WorkReport{
		DeviceID: dev.ID, Worker: dev.Node,
		QueueWait:   tStart - w.submitT,
		H2D:         tAfterH2D - tStart,
		Kernel:      kernelDur,
		D2H:         d2h,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
		StolenFrom:  w.stolenFrom,
	}
	w.err = kerr
	w.device = dev
	if mgr.tracer.Enabled() {
		job := obs.Int("job", int64(w.JobID))
		if kerr != nil {
			// A failed kernel's span says so, as fail's spans do.
			mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, tStart, w.report, job, obs.Str("error", kerr.Error()))
		} else {
			mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, tStart, w.report, job)
		}
	}
	w.done.Set()
}
