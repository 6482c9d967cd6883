package core

import (
	"fmt"
	"time"

	"gflink/internal/gpu"
	"gflink/internal/membuf"
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
	queue   vclock.Ring[*GWork]        // this GPU's FIFO queue in the GWork Pool
	idle    vclock.Ring[*streamWorker] // idle streams of this bulk
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

// streamWorker feeds one CUDA stream: a vclock.Task whose step drives
// one GWork at a time through admission, the H2D / kernel / D2H
// pipeline and its bookkeeping (see step).
type streamWorker struct {
	mgr    *GStreamManager
	ds     *deviceState
	stream *gpu.Stream
	inbox  *vclock.Queue[*GWork]
	track  string // trace track of this stream's pipeline spans
	task   *vclock.Task
	// tiered is set when the device's memory manager has a host tier:
	// its Acquire, Insert and Reclaim then sleep inside promote, demote
	// and spill, so the step makes them through Task.Call, with the
	// prebuilt bodies lookupFn, insertFn and reclaimFn.
	tiered                        bool
	lookupFn, insertFn, reclaimFn func()

	// The work in flight and where the step machine stands in it.
	w         *GWork
	phase     workPhase
	footprint int64         // admitted budget units, released at finish
	tStart    time.Duration // the pipeline's start, after admission
	// i indexes the loop of the current phase: the input being moved
	// (len(w.In) stands for the output), the toCache entry being
	// inserted, or the buffer being freed.
	i           int
	buf         *gpu.Buffer // the buffer being allocated
	hit         bool        // the last cache lookup hit
	cacheHits   int
	cacheMisses int
	kernelDur   time.Duration
	kerr        error // the kernel's error
	allocErr    error // the allocation failure that ended the work

	// Per-stream execution scratch, reused across the works this stream
	// executes so the three-stage pipeline is allocation-free at steady
	// state. Reset by start before each work.
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
	// safe because the step synchronizes on each launch before issuing
	// the next).
	fut *gpu.Future
}

// workPhase is where a stream worker's step stands. A phase that
// follows a charge runs the action the charge pays for, so a step that
// parked in the charge resumes exactly there.
type workPhase uint8

const (
	phaseIdle      workPhase = iota // no work: take the next from the inbox
	phaseAdmitted                   // the work's budget is held: start its pipeline
	phaseInput                      // input i or the output: look a cached input up, or charge cudaMalloc
	phaseLookedUp                   // input i's lookup is done: a miss charges cudaMalloc
	phaseMalloc                     // reserve device memory; a failure reclaims the cache
	phaseReclaimed                  // the cache was reclaimed: charge cudaMalloc again
	phaseRetry                      // reserve again; a second failure fails the work
	phaseFill                       // MallocOverhead passed: back the buffer, charge cudaHostRegister
	phaseRegister                   // charge the pin, if the host buffer has none
	phasePinned                     // publish the pin; charge the input's copy, or set up the launch
	phaseCopy                       // enqueue input i's H2D copy
	phaseLaunch                     // enqueue the launch, charge the D2H copy
	phaseD2H                        // enqueue the D2H copy, charge the synchronize
	phaseSync                       // synchronize the stream
	phaseSynced                     // the stream drained: read the launch's result
	phaseSettle                     // insert missed cache-flagged inputs into the cache, then drop the pins
	phaseFreed                      // free loop: free buffer i-1, then charge cudaFree for buffer i, or finish
)

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
			sw.tiered = mem.HostTierBytes() > 0
			sw.lookupFn, sw.insertFn, sw.reclaimFn = sw.lookup, sw.insert, sw.reclaim
			ds.streams = append(ds.streams, sw)
			ds.idle.Push(sw)
			sw.task = cfg.Clock.Spawn(fmt.Sprintf("gstream-w%d-g%d-s%d", mem.Device().Node, i, s), sw.step)
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
func (m *GStreamManager) Submit(w *GWork) {
	if w.done == nil {
		// Unpooled submission; WorkPool shells arrive with their event preset.
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
func (m *GStreamManager) pickGPU(w *GWork) int {
	if m.policy == RoundRobin {
		gid := m.rr % len(m.devs)
		m.rr++
		return gid
	}
	keys := m.scratchKeys[:0]
	for _, in := range w.In {
		if in.Cache {
			// Amortized growth of the key scratch, reused across submissions.
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

func (m *GStreamManager) popIdle(gid int) *streamWorker {
	sw, _ := m.devs[gid].idle.Pop()
	return sw
}

func (m *GStreamManager) bulkWithMostIdle() int {
	best, most := -1, 0
	for i, ds := range m.devs {
		if ds.idle.Len() > most {
			best, most = i, ds.idle.Len()
		}
	}
	return best
}

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
func (m *GStreamManager) nextOrIdle(sw *streamWorker) *GWork {
	if w := m.steal(sw.ds.idx); w != nil {
		return w
	}
	sw.ds.idle.Push(sw)
	return nil
}

// step is the stream worker task's step: a stream worker's consumer
// loop. It executes directly handed work, then keeps pulling from the
// GWork Pool until it runs dry, then goes idle on its inbox. (This is
// the event-driven equivalent of the paper's periodic Stealing poll
// with an idle-timeout thread release.)
//
// Each CUDAWrapper call is the call's charge followed by a phase that
// runs its action: a phase that ends in a charge sets d and the next
// phase, and the loop sleeps d through the task, so the step returns
// wherever the task parks and resumes at that phase. Across its calls
// it makes the primitive calls of the blocking pipeline — admission,
// then per input a cache lookup, cudaMalloc (with one cache-reclaim
// retry), cudaHostRegister and the H2D copy; the same for the output;
// the launch, the D2H copy and cudaStreamSynchronize; then cache
// inserts, cudaFree of every scratch buffer, completion and the budget
// release — in that order, so wake order and simulated time are those
// of that pipeline. The three memory-manager calls that can sleep with
// a host tier run through tierCall.
func (sw *streamWorker) step() {
	wr := sw.mgr.wrapper
	for {
		w := sw.w
		var d time.Duration
		switch sw.phase {
		case phaseIdle:
			next, ok, wait := sw.inbox.GetTask(sw.task)
			if wait {
				return
			}
			if !ok {
				sw.task.Exit()
				return
			}
			if !sw.admit(next) {
				return
			}
			continue
		case phaseAdmitted:
			sw.start()
			continue
		case phaseCopy:
			in := &w.In[sw.i]
			if in.Ranges != nil {
				// Column projection: ship only the referenced byte ranges,
				// charged at the (projected) nominal volume.
				sw.stream.H2DRangesAsync(sw.devBufs[sw.i], in.Buf, in.Ranges, in.Nominal)
			} else {
				sw.stream.H2DAsync(sw.devBufs[sw.i], in.Buf, in.Nominal)
			}
			sw.ds.cntH2D.Add(in.Nominal)
			sw.i++
			fallthrough
		case phaseInput:
			if sw.i < len(w.In) && w.In[sw.i].Cache {
				sw.phase = phaseLookedUp
				if !sw.tierCall(sw.lookupFn) {
					return
				}
				continue
			}
			d, sw.phase = wr.charge(callMalloc), phaseMalloc
		case phaseLookedUp:
			if sw.hit {
				sw.i++
				sw.phase = phaseInput
				continue
			}
			d, sw.phase = wr.charge(callMalloc), phaseMalloc
		case phaseMalloc, phaseRetry:
			nominal, real := sw.sizes()
			b, err := sw.ds.dev.MallocReserve(nominal, real)
			if err == nil {
				sw.buf = b
				d, sw.phase = gpu.MallocOverhead, phaseFill
				break
			}
			if sw.phase == phaseRetry {
				if !sw.allocFailed(err) {
					continue
				}
				d, sw.phase = wr.charge(callStreamSynchronize), phaseSync
				break
			}
			sw.phase = phaseReclaimed
			if !sw.tierCall(sw.reclaimFn) {
				return
			}
			continue
		case phaseReclaimed:
			d, sw.phase = wr.charge(callMalloc), phaseRetry
		case phaseFill:
			_, real := sw.sizes()
			sw.ds.dev.MallocFill(sw.buf, real)
			sw.place(sw.buf)
			d, sw.phase = wr.charge(callHostRegister), phaseRegister
		case phaseRegister:
			if pin, ok := sw.host().PinCharge(); ok {
				d, sw.phase = pin, phasePinned
				break
			}
			fallthrough
		case phasePinned:
			// A fallthrough from phaseRegister charged no pin to publish.
			if sw.phase == phasePinned {
				sw.host().PinPublish()
			}
			if sw.i < len(w.In) {
				d, sw.phase = wr.charge(callMemcpyH2D), phaseCopy
				break
			}
			sw.tAfterH2D = 0
			sw.stream.Callback(sw.markH2D)
			sw.prepareLaunch()
			d, sw.phase = wr.charge(callLaunch), phaseLaunch
		case phaseLaunch:
			sw.stream.LaunchAsyncInto(sw.fut, w.ExecuteName, &sw.ctx)
			d, sw.phase = wr.charge(callMemcpyD2H), phaseD2H
		case phaseD2H:
			sw.stream.D2HAsync(w.Out, sw.outArr[0], w.OutNominal)
			sw.ds.cntD2H.Add(w.OutNominal)
			d, sw.phase = wr.charge(callStreamSynchronize), phaseSync
		case phaseSync:
			sw.phase = phaseSynced
			if !sw.stream.SynchronizeTask(sw.task) {
				return
			}
			fallthrough
		case phaseSynced:
			if sw.allocErr == nil {
				sw.kernelDur, sw.kerr = sw.fut.Result()
			}
			sw.i, sw.phase = 0, phaseSettle
			fallthrough
		case phaseSettle:
			if sw.i < len(sw.toCache) {
				if !sw.tierCall(sw.insertFn) {
					return
				}
				continue
			}
			// Every missed input is now cached or queued for cudaFree.
			for _, k := range sw.acquired {
				sw.ds.mem.Release(k)
			}
			sw.i = 0
			fallthrough
		case phaseFreed:
			if sw.i > 0 {
				sw.ds.dev.Free(sw.toFree[sw.i-1])
			}
			if sw.i == len(sw.toFree) {
				if !sw.finish() {
					return
				}
				continue
			}
			sw.i++
			d, sw.phase = wr.charge(callFree), phaseFreed
		}
		if !sw.task.Sleep(d) {
			return
		}
	}
}

// tierCall runs fn, one of the memory-manager calls that sleep inside
// the host tier, and reports whether it finished in place. Without a
// tier it cannot sleep and runs in place; with one it runs on the
// stack the task borrows (see vclock.Task.Call).
func (sw *streamWorker) tierCall(fn func()) bool {
	if !sw.tiered {
		fn()
		return true
	}
	// Host-tier path: the borrowed stack is created once per worker, and the
	// bodies are the manager's own calls.
	return sw.task.Call(fn)
}

// admit makes w the worker's current work and applies admission
// control: it reserves the work's worst-case transient device memory
// atomically, so concurrent streams throttle instead of failing
// allocations mid-flight. It reports whether the step keeps the slot;
// a work queued on the budget starts once the budget is granted.
func (sw *streamWorker) admit(w *GWork) bool {
	footprint := w.OutNominal
	for _, in := range w.In {
		footprint += in.Nominal
	}
	if footprint > sw.ds.budgetCap {
		footprint = sw.ds.budgetCap
	}
	sw.w, sw.footprint, sw.phase = w, footprint, phaseAdmitted
	return footprint <= 0 || sw.ds.budget.AcquireTask(sw.task, footprint)
}

// start resets the per-stream scratch for the admitted work and starts
// its pipeline at the first input. The scratch slices only grow to the
// widest work this stream has seen, so steady-state executions reuse
// them allocation-free.
func (sw *streamWorker) start() {
	n := len(sw.w.In)
	if cap(sw.devBufs) < n {
		sw.devBufs = make([]*gpu.Buffer, n)
	}
	sw.devBufs = sw.devBufs[:n]
	for i := range sw.devBufs {
		sw.devBufs[i] = nil
	}
	sw.acquired = sw.acquired[:0]
	sw.toCache = sw.toCache[:0]
	sw.toFree = sw.toFree[:0]
	sw.cacheHits, sw.cacheMisses = 0, 0
	sw.tStart = sw.mgr.clock.Now()
	sw.i, sw.phase = 0, phaseInput
}

// sizes returns the nominal and real byte sizes of the buffer being
// allocated: input i's, or the output's.
func (sw *streamWorker) sizes() (nominal int64, real int) {
	w := sw.w
	if sw.i < len(w.In) {
		return w.In[sw.i].Nominal, len(w.In[sw.i].Buf.Bytes())
	}
	return w.OutNominal, len(w.Out.Bytes())
}

// host returns the host buffer being registered: input i's, or the
// output.
func (sw *streamWorker) host() *membuf.HBuffer {
	if sw.i < len(sw.w.In) {
		return sw.w.In[sw.i].Buf
	}
	return sw.w.Out
}

// place records a freshly allocated buffer: a cache-flagged input's
// waits to be inserted into the cache, every other one to be freed.
func (sw *streamWorker) place(b *gpu.Buffer) {
	w := sw.w
	if sw.i == len(w.In) {
		sw.outArr[0] = b
		sw.toFree = append(sw.toFree, b)
		return
	}
	sw.devBufs[sw.i] = b
	if w.In[sw.i].Cache {
		sw.toCache = append(sw.toCache, sw.i)
	} else {
		sw.toFree = append(sw.toFree, b)
	}
}

// lookup looks input i up in the device cache: a hit pins the entry
// and binds its buffer, a miss counts.
func (sw *streamWorker) lookup() {
	in := &sw.w.In[sw.i]
	buf, ok := sw.ds.mem.Acquire(in.Key)
	sw.hit = ok
	if !ok {
		sw.cacheMisses++
		return
	}
	sw.devBufs[sw.i] = buf
	sw.acquired = append(sw.acquired, in.Key)
	sw.cacheHits++
}

// insert offers the i-th missed input to the cache: the cache keeps it
// pinned, or it joins the buffers to free.
func (sw *streamWorker) insert() {
	i := sw.toCache[sw.i]
	in := &sw.w.In[i]
	if sw.ds.mem.Insert(in.Key, sw.devBufs[i], in.Nominal) {
		sw.acquired = append(sw.acquired, in.Key)
	} else {
		sw.toFree = append(sw.toFree, sw.devBufs[i])
	}
	sw.i++
}

// reclaim evicts unpinned cache entries until the buffer being
// allocated fits, for the one retry.
func (sw *streamWorker) reclaim() {
	nominal, _ := sw.sizes()
	sw.ds.mem.Reclaim(nominal)
}

// prepareLaunch binds the work to the stream's reusable launch context
// (safe: a stream runs one work at a time, and the step synchronizes on
// the launch before the next work starts).
func (sw *streamWorker) prepareLaunch() {
	w := sw.w
	ctx := &sw.ctx
	*ctx = gpu.KernelCtx{
		In:        sw.devBufs,
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
}

// allocFailed ends the work on an allocation that failed after its
// cache-reclaim retry. The step goes on to release its pins and free
// every device buffer allocated so far: first the inputs that missed
// the cache and were waiting to be inserted, then the scratch buffers.
// allocFailed reports whether any of those buffers has its H2D copy
// queued on the stream; the step then first synchronizes the stream
// (cudaStreamSynchronize) to let the copies finish before their
// buffers are freed.
func (sw *streamWorker) allocFailed(err error) bool {
	w := sw.w
	if sw.i < len(w.In) {
		sw.allocErr = fmt.Errorf("allocating input %d of %q: %w", sw.i, w.ExecuteName, err)
	} else {
		sw.allocErr = fmt.Errorf("allocating output of %q: %w", w.ExecuteName, err)
	}
	free := make([]*gpu.Buffer, 0, len(sw.toCache)+len(sw.toFree))
	for _, i := range sw.toCache {
		free = append(free, sw.devBufs[i])
	}
	sw.toFree, sw.toCache = append(free, sw.toFree...), sw.toCache[:0]
	sw.i, sw.phase = 0, phaseSettle
	return len(sw.toFree) > 0
}

// finish completes the current work: it reports and traces it, sets
// its completion event and releases its budget. Then the worker takes
// the next work from the GWork Pool or goes idle. finish reports
// whether the step keeps the slot.
func (sw *streamWorker) finish() bool {
	w := sw.w
	if sw.allocErr != nil {
		sw.reportFailure()
	} else {
		sw.report()
	}
	w.done.Set()
	if sw.footprint > 0 {
		sw.ds.budget.Release(sw.footprint)
	}
	sw.w, sw.buf, sw.kerr, sw.allocErr = nil, nil, nil, nil
	if next := sw.mgr.nextOrIdle(sw); next != nil {
		return sw.admit(next)
	}
	sw.phase = phaseIdle
	return true
}

// report fills the completed work's report and records its spans.
func (sw *streamWorker) report() {
	mgr := sw.mgr
	w := sw.w
	dev := sw.ds.dev
	tEnd := mgr.clock.Now()
	d2h := tEnd - sw.tAfterH2D - sw.kernelDur
	if d2h < 0 {
		d2h = 0
	}
	w.report = obs.WorkReport{
		DeviceID: dev.ID, Worker: dev.Node,
		QueueWait:   sw.tStart - w.submitT,
		H2D:         sw.tAfterH2D - sw.tStart,
		Kernel:      sw.kernelDur,
		D2H:         d2h,
		CacheHits:   sw.cacheHits,
		CacheMisses: sw.cacheMisses,
		StolenFrom:  w.stolenFrom,
	}
	w.err = sw.kerr
	w.device = dev
	if mgr.tracer.Enabled() {
		job := obs.Int("job", int64(w.JobID))
		if sw.kerr != nil {
			// A failed kernel's span says so, as a failed allocation's does.
			mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, sw.tStart, w.report, job, obs.Str("error", sw.kerr.Error()))
		} else {
			mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName, w.submitT, sw.tStart, w.report, job)
		}
	}
}

// reportFailure fills the report of a work whose allocation failed and
// records its spans. A failed work still queued and still occupied the
// stream, so the trace records the queue wait and a failed gwork span
// instead of a hole where the work died.
func (sw *streamWorker) reportFailure() {
	mgr := sw.mgr
	w := sw.w
	dev := sw.ds.dev
	w.err = sw.allocErr
	w.device = dev
	w.report = obs.WorkReport{
		DeviceID: dev.ID, Worker: dev.Node,
		QueueWait:   sw.tStart - w.submitT,
		CacheHits:   sw.cacheHits,
		CacheMisses: sw.cacheMisses,
		StolenFrom:  w.stolenFrom,
	}
	mgr.tracer.Record(sw.ds.queueTrack, "queue", "queue:"+w.ExecuteName,
		w.submitT, sw.tStart, obs.Int("device", int64(dev.ID)))
	mgr.tracer.Record(sw.track, "gwork", w.ExecuteName,
		sw.tStart, mgr.clock.Now(),
		obs.Int("device", int64(dev.ID)),
		obs.Int("job", int64(w.JobID)),
		obs.Str("error", sw.allocErr.Error()))
}
