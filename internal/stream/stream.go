// Package stream is GFlink's DataStream layer: the unbounded-source
// counterpart to package plan's one-shot batch graphs. A Pipeline is a
// linear chain of stages — a generator source, tumbling-window keyed
// aggregations, a sink — each running as its own virtual-time task on
// a worker node, connected by bounded edges with credit-based
// backpressure:
//
//   - records are micro-batched into fixed-size batches; a full batch
//     costs one netsim transfer between the producing and consuming
//     workers, priced by the cost model like any other network traffic;
//   - every edge holds Options.BufferBatches credits. Sending a batch
//     consumes a credit; a producer with no credits blocks on the
//     virtual clock (the blocked time is metered per stage). The
//     consumer returns each credit after processing its batch, and the
//     grant travels back over netsim as a small control message, so a
//     one-deep buffer exposes the full credit round trip while a deep
//     buffer overlaps production, transfer and consumption;
//   - window aggregation is an Either stage: the pipeline's plan.Mode
//     lowers the window onto the GPU map/reduce path (pooled GWorks
//     through core.WorkPool, so steady-state submission stays
//     allocation-free) or onto a CPU slot, as it picks an Either body
//     in package plan. Keys are pre-hashed to slots on the host and
//     both bodies replay the same float additions in the same order, so
//     results are bit-identical across placements.
//
// Stages and the edges' credit couriers are stackless vclock tasks:
// each step is a state machine that makes the primitive calls of a
// blocking loop (credit acquire, transfer, queue put and get, sleep) in
// that loop's order through the task forms, so no stage parks a
// coroutine. Determinism is inherited from the substrate: tasks are
// dispatched cooperatively, edges are FIFO queues and semaphores, and
// every span/counter timestamp is a virtual-clock reading — a pipeline
// run is byte-identical across GOMAXPROCS settings and repeat runs.
package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/netsim"
	"gflink/internal/obs"
	"gflink/internal/plan"
	"gflink/internal/vclock"
)

// Record is one streaming element: an aggregation key and a value.
type Record struct {
	Key uint64
	Val float32
}

// packedRecordBytes is the on-device encoding of one record for the
// windowAgg kernel: one little-endian uint64 holding the uint32 slot
// index in its low half and the float32 value's bits in its high half.
const packedRecordBytes = 8

// Options are a pipeline's resolved settings. Construct them through
// New's functional options; the zero value of every field selects the
// default.
type Options struct {
	// Mode places every window stage: plan.ForceCPU (the default) or
	// plan.ForceGPU.
	Mode plan.Mode
	// BatchRecords is the records per micro-batch (default 256). One
	// batch is the unit of network transfer and credit accounting.
	BatchRecords int
	// BufferBatches is the per-edge credit count — the bounded buffer
	// depth in batches (default 4). 1 serializes every batch against
	// the full credit round trip.
	BufferBatches int
}

// recordWireBytes is the nominal wire size of one record on the
// cluster network; the packed GPU staging form is always
// packedRecordBytes.
const recordWireBytes = 64

// Option mutates Options before construction (the same functional-
// option shape as core.NewMemoryManager's MemOption).
type Option func(*Options)

// WithMode sets window placement (plan.ForceCPU or plan.ForceGPU).
func WithMode(m plan.Mode) Option { return func(o *Options) { o.Mode = m } }

// WithBatchRecords sets the records per micro-batch.
func WithBatchRecords(n int) Option { return func(o *Options) { o.BatchRecords = n } }

// WithBufferBatches sets the per-edge credit count (buffer depth).
func WithBufferBatches(n int) Option { return func(o *Options) { o.BufferBatches = n } }

// SourceSpec configures a generator source stage.
type SourceSpec struct {
	// Records bounds the run (experiments need finite streams); the
	// pipeline treats the stream as unbounded until it drains.
	Records int64
	// Keys is the key-space size the generator draws from (default
	// 1024).
	Keys int
	// Seed keys the splitmix64 generator, so sources are deterministic
	// and reproducible at any batch size.
	Seed uint64
}

// sourcePerRecord is the demand of producing one record (decode,
// validate) on the source's CPU slot: a cheap decode, so a source
// outruns any non-trivial consumer and backpressure is the governing
// mechanism.
var sourcePerRecord = costmodel.Work{Flops: 8, BytesRead: 16, BytesWritten: 8}

// WindowSpec configures a tumbling-window keyed aggregation stage.
type WindowSpec struct {
	// Records is the window width: the window fires every Records
	// records (required, positive).
	Records int
	// Slots is the dense key-slot table size keys hash into (default
	// 256). The stage emits one aggregate record per slot per window.
	Slots int
}

// windowPerRecord is the CPU body's per-record aggregation demand:
// heavy enough (a few thousand flops — sessionization, model scoring)
// that a CPU-placed consumer is the pipeline bottleneck, which is the
// rate-mismatch regime the backpressure experiments reproduce.
var windowPerRecord = costmodel.Work{Flops: 4500, BytesRead: 64, BytesWritten: 8}

// Result is one pipeline run's measurements.
type Result struct {
	// Records is the count ingested at the source; Batches the batch
	// count it emitted; Windows the windows fired across all stages.
	Records, Batches, Windows int64
	// Makespan is the virtual time from stage start to sink drain
	// (excluding job submission); Throughput is Records over it, in
	// records per simulated second.
	Makespan   time.Duration
	Throughput float64
	// Blocked is the total virtual time producers spent waiting for
	// credits, summed over every edge — the backpressure signal.
	Blocked time.Duration
	// MaxDepth is the deepest any edge buffer got, in batches.
	MaxDepth int64
	// Checksum folds every aggregate the sink received, for
	// CPU-vs-GPU equivalence checks.
	Checksum float64
}

// Pipeline is a deferred stream topology: stage constructors append
// stages, Run spawns them as virtual-time tasks and waits for the
// bounded stream to drain. Mirrors plan.Graph: construction never
// touches the clock.
type Pipeline struct {
	g       *core.GFlink
	name    string
	opts    Options
	tracer  *obs.Tracer
	metrics *obs.Registry

	stages []*stage
	ran    bool
	// t0 is when the stage tasks start; live counts the run's tasks
	// still alive, and the last to exit sets done, which Run waits on.
	t0   time.Duration
	live int
	done *vclock.Event
}

// New starts an empty pipeline against a deployment. Like
// plan.NewGraph, nothing touches the virtual clock until Run.
func New(g *core.GFlink, name string, opts ...Option) *Pipeline {
	o := Options{}
	for _, fn := range opts {
		fn(&o)
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = 256
	}
	if o.BufferBatches <= 0 {
		o.BufferBatches = 4
	}
	return &Pipeline{
		g: g, name: name, opts: o,
		tracer: g.Obs.Tracer(), metrics: g.Obs.Metrics(),
	}
}

// Options returns the pipeline's resolved options.
func (p *Pipeline) Options() Options { return p.opts }

type stageKind int

const (
	kSource stageKind = iota
	kWindow
	kSink
)

func (k stageKind) String() string {
	switch k {
	case kSource:
		return "source"
	case kWindow:
		return "window"
	default:
		return "sink"
	}
}

// stage is one pipeline stage. Each stage runs as a single vclock
// task, so its mutable fields need no locking.
type stage struct {
	p      *Pipeline
	idx    int
	kind   stageKind
	name   string
	worker int
	track  string

	in, out *edge

	src SourceSpec
	win WindowSpec

	// Preregistered counter handles (stream.<what>.s<idx>), so per-batch
	// accounting neither formats strings nor hashes counter names.
	cntRecords, cntBatches, cntWindows *obs.Counter
	cntBlocked, cntGrants, cntDepth    *obs.Counter

	// run measurements, aggregated into Result after the run drains.
	records, batches, windows int64
	blocked                   time.Duration
	checksum                  float64

	// The task and where its step stands: the input batch in hand
	// (window, sink) with its records not yet folded (window).
	task  *vclock.Task
	phase stagePhase
	cur   *batch
	rest  []Record

	// source state: the generator state and the key reduction
	z    uint64
	keys modulus

	// window state: fill records folded into the open window, the slot
	// sums emitted when it fires, when it fired, and the sums already
	// emitted
	fill    int
	sums    []float32
	slot    modulus
	dev     plan.Device
	t0      time.Duration
	emitted int
	// GPU-path staging: host buffers reused across windows, plus the
	// one-element Args backing (WorkPool.Put drops Args, whose backing
	// belongs to the submitter), and the GWork in flight.
	inBuf, outBuf *membuf.HBuffer
	args          [1]int64
	jobID         int
	work          *core.GWork
}

// Stage is the exported handle stage constructors chain on.
type Stage struct{ s *stage }

func (p *Pipeline) addStage(kind stageKind, name string, worker int) *stage {
	if p.ran {
		panic("stream: cannot append stages to a pipeline that ran")
	}
	if worker < 0 || worker >= p.g.Cfg.Config.Workers {
		panic(fmt.Sprintf("stream: stage %q on worker %d of a %d-worker deployment", name, worker, p.g.Cfg.Config.Workers))
	}
	s := &stage{
		p: p, idx: len(p.stages), kind: kind, name: name, worker: worker,
		track: fmt.Sprintf("stream/%s/%s", p.name, name),
	}
	s.cntRecords = p.metrics.Counter(obs.StreamRecords, s.idx)
	s.cntBatches = p.metrics.Counter(obs.StreamBatches, s.idx)
	s.cntWindows = p.metrics.Counter(obs.StreamWindows, s.idx)
	s.cntBlocked = p.metrics.Counter(obs.StreamBlockedNs, s.idx)
	s.cntGrants = p.metrics.Counter(obs.StreamGrants, s.idx)
	s.cntDepth = p.metrics.Counter(obs.StreamDepthMax, s.idx)
	p.stages = append(p.stages, s)
	return s
}

// Source appends an unbounded generator source pinned to a worker node.
// It must be the pipeline's first stage.
func (p *Pipeline) Source(name string, worker int, spec SourceSpec) *Stage {
	if len(p.stages) != 0 {
		panic("stream: Source must be the first stage")
	}
	if spec.Records <= 0 {
		panic("stream: SourceSpec.Records must be positive (experiments bound the stream)")
	}
	if spec.Keys <= 0 {
		spec.Keys = 1024
	}
	s := p.addStage(kSource, name, worker)
	s.src = spec
	s.keys, s.z = newModulus(uint64(spec.Keys)), spec.Seed
	return &Stage{s: s}
}

// Window appends a tumbling-window keyed aggregation stage downstream
// of up, pinned to a worker node. Placement (CPU slot vs pooled GWorks
// on the worker's GPUs) follows the pipeline's Mode.
func (up *Stage) Window(name string, worker int, spec WindowSpec) *Stage {
	p := up.s.p
	if up.s.kind == kSink {
		panic("stream: cannot consume from a sink")
	}
	if spec.Records <= 0 {
		panic("stream: WindowSpec.Records must be positive")
	}
	if spec.Slots <= 0 {
		spec.Slots = 256
	}
	s := p.addStage(kWindow, name, worker)
	s.win = spec
	p.connect(up.s, s)
	return &Stage{s: s}
}

// Sink appends a terminal stage that drains its input edge, folding a
// checksum over every record it receives.
func (up *Stage) Sink(name string, worker int) *Stage {
	p := up.s.p
	if up.s.kind == kSink {
		panic("stream: cannot consume from a sink")
	}
	s := p.addStage(kSink, name, worker)
	p.connect(up.s, s)
	return &Stage{s: s}
}

func (p *Pipeline) connect(from, to *stage) {
	if from.out != nil {
		panic(fmt.Sprintf("stream: stage %q already has a consumer", from.name))
	}
	from.out = &edge{p: p, from: from, to: to}
	to.in = from.out
}

// Run materializes the pipeline: submit the job (charging the usual
// submission overhead), place the windows by the mode, spawn one task
// per stage plus one credit courier per edge, and wait for the bounded
// stream to drain. Must be called inside g.Run, like plan.Execute.
func (p *Pipeline) Run() Result {
	if p.ran {
		panic("stream: pipeline already ran")
	}
	p.ran = true
	if len(p.stages) < 2 || p.stages[0].kind != kSource || p.stages[len(p.stages)-1].kind != kSink {
		panic("stream: a pipeline needs a Source, optional Windows, and a Sink")
	}
	clock := p.g.Cluster.Clock
	start := clock.Now()
	job := p.g.Cluster.NewJob(p.name)
	for _, s := range p.stages {
		if s.kind == kWindow {
			s.dev = p.opts.Mode.Device()
			s.prepareWindow(job.ID)
		}
	}
	p.t0 = clock.Now()
	p.done = vclock.NewEvent(clock)
	for _, s := range p.stages {
		if s.out != nil {
			s.out.open(clock)
			s.out.courier = clock.Spawn(s.track+"/credits", s.out.courierStep)
			p.live++
		}
		var step func()
		switch s.kind {
		case kSource:
			step = s.sourceStep
		case kWindow:
			step = s.windowStep
		default:
			step = s.sinkStep
		}
		s.task = clock.Spawn(s.track, step)
		p.live++
	}
	p.done.Wait()
	makespan := clock.Now() - p.t0
	for _, s := range p.stages {
		if s.kind == kWindow {
			s.inBuf.Free()
			s.outBuf.Free()
		}
	}

	res := Result{Makespan: makespan}
	for _, s := range p.stages {
		if s.kind == kSource {
			res.Records += s.records
			res.Batches += s.batches
		}
		res.Windows += s.windows
		res.Blocked += s.blocked
		res.Checksum += s.checksum
		if s.out != nil && int64(s.out.depthMax) > res.MaxDepth {
			res.MaxDepth = int64(s.out.depthMax)
		}
	}
	if makespan > 0 {
		res.Throughput = float64(res.Records) / makespan.Seconds()
	}
	p.tracer.Record("driver", "stream", "stream:"+p.name, start, clock.Now(),
		obs.Str("mode", p.opts.Mode.String()),
		obs.Int("batch_records", int64(p.opts.BatchRecords)),
		obs.Int("buffer_batches", int64(p.opts.BufferBatches)),
		obs.Int("stages", int64(len(p.stages))),
		obs.Int("records", res.Records),
		obs.Dur("blocked", res.Blocked))
	return res
}

// exit ends one of the pipeline's tasks. The last one to finish wakes
// Run before its task exits, the order a vclock.Group member's exit
// keeps.
func (p *Pipeline) exit(t *vclock.Task) {
	if p.live--; p.live == 0 {
		p.done.Set()
	}
	t.Exit()
}

// batch is the unit of transfer and credit accounting. Shells circulate
// producer -> consumer -> (with the credit grant) back to the producer,
// so a stage allocates at most BufferBatches+1 of them.
type batch struct {
	recs []Record
}

// sendPhase is where an edge's send stands.
type sendPhase uint8

const (
	sendIdle   sendPhase = iota // no send in flight: take a credit
	sendCredit                  // the credit is held: start the transfer
	sendWire                    // the transfer is in flight
)

// edge is one bounded producer-consumer link: a FIFO of in-flight
// batches, a credit semaphore sized to the buffer limit, and the grant
// path that returns credits (and batch shells) to the producer over the
// network.
type edge struct {
	p        *Pipeline
	from, to *stage

	q       *vclock.Queue[*batch]
	credits *vclock.Semaphore
	grants  *vclock.Queue[*batch]
	free    *vclock.Queue[*batch]
	// depthMax is the buffer-occupancy high watermark, written only by
	// the producing stage's task.
	depthMax int

	// The producer's send: the batch it ships (nil when none is
	// pending), when its credit wait began, where it stands, and its
	// transfer.
	b     *batch
	t0    time.Duration
	phase sendPhase
	wire  netsim.Xfer
	// The courier task, the grant it is returning and the grant's
	// transfer back to the producer.
	courier *vclock.Task
	grant   *batch
	back    netsim.Xfer
}

// open creates the edge's queues and credit semaphore when Run starts.
// It names the semaphore without fmt, whose printer pool makes the
// allocation count of Run vary under the race detector.
func (e *edge) open(clock *vclock.Clock) {
	e.q = vclock.NewQueue[*batch](clock)
	e.grants = vclock.NewQueue[*batch](clock)
	e.free = vclock.NewQueue[*batch](clock)
	e.credits = vclock.NewSemaphore(clock,
		"stream-credits-s"+strconv.Itoa(e.from.idx), int64(e.p.opts.BufferBatches))
}

// take returns an empty batch shell, reusing one returned by a credit
// grant when available.
func (e *edge) take() *batch {
	if b, ok := e.free.TryGet(); ok {
		b.recs = b.recs[:0]
		return b
	}
	// Cold start: at most BufferBatches+1 shells per edge, recycled by the courier
	// thereafter.
	return &batch{recs: make([]Record, 0, e.p.opts.BatchRecords)}
}

// send ships e.b downstream from the producing stage's task t: acquire
// a credit (waiting on the virtual clock when the buffer is full — the
// metered backpressure signal), pay the network transfer at nominal
// record size, enqueue. It returns true once the batch is enqueued. It
// returns false when t parked: the step must return, and call send
// again when it runs next.
func (e *edge) send(t *vclock.Task) bool {
	clock := e.p.g.Cluster.Clock
	switch e.phase {
	case sendIdle:
		e.t0 = clock.Now()
		e.phase = sendCredit
		if !e.credits.AcquireTask(t, 1) {
			return false
		}
		fallthrough
	case sendCredit:
		if blocked := clock.Now() - e.t0; blocked > 0 {
			e.from.blocked += blocked
			e.from.cntBlocked.Add(int64(blocked))
			e.p.tracer.Record(e.from.track, "backpressure", "credit-wait", e.t0, clock.Now())
		}
		e.wire.Start(e.p.g.Cluster.Net, e.from.worker, e.to.worker, int64(len(e.b.recs))*recordWireBytes)
		e.phase = sendWire
		fallthrough
	case sendWire:
		if !e.wire.Step(t) {
			return false
		}
	}
	e.q.Put(e.b)
	if d := e.q.Len(); d > e.depthMax {
		e.depthMax = d
		e.from.cntDepth.Max(int64(d))
	}
	e.from.batches++
	e.from.cntBatches.Add(1)
	e.b, e.phase = nil, sendIdle
	return true
}

// closeSend marks the stream drained: consumers observe end-of-stream
// once the buffered batches are processed, and the courier exits after
// returning the outstanding credits.
func (e *edge) closeSend() { e.q.Close() }

// ack returns the consumed batch's credit (and its shell) to the
// producer. The grant itself is carried by the edge's courier task so
// the network latency of the control message never stalls the
// consumer.
func (e *edge) ack(b *batch) { e.grants.Put(b) }

// courierStep is the step of the edge's credit-return task: for every
// processed batch it pays the control-message transfer back to the
// producer, recycles the shell and releases the credit.
func (e *edge) courierStep() {
	t := e.courier
	for {
		if e.grant == nil {
			b, ok, wait := e.grants.GetTask(t)
			if wait {
				return
			}
			if !ok {
				e.p.exit(t)
				return
			}
			e.grant = b
			e.back.Start(e.p.g.Cluster.Net, e.to.worker, e.from.worker, costmodel.StreamCreditBytes)
		}
		if !e.back.Step(t) {
			return
		}
		e.free.Put(e.grant)
		e.grant = nil
		e.credits.Release(1)
		e.from.cntGrants.Add(1)
	}
}

// stagePhase is where a stage's task stands in its loop.
type stagePhase uint8

const (
	phNext    stagePhase = iota // produce (source) or take (window, sink) the next batch
	phCharged                   // sink: the batch's CPU time has passed
	phSend                      // source: the batch's CPU time has passed; send it downstream
	phFold                      // window: fold the batch in hand up to the window width
	phFire                      // window: aggregate the full window
	phGPU                       // window: the window's GWork is in flight
	phFired                     // window: the window's sums are ready
	phEmit                      // window: the sums are on their way downstream
	phClose                     // close the output and wait for every credit
	phDrained                   // every credit came home
)

// sourceStep is the source task's step: it generates records batch by
// batch, charging the production cost on the source worker's CPU and
// pushing each batch through the credit-bounded edge.
func (s *stage) sourceStep() {
	t, e := s.task, s.out
	for {
		switch s.phase {
		case phNext:
			if s.records == s.src.Records {
				s.phase = phClose
				continue
			}
			n := min(int64(s.p.opts.BatchRecords), s.src.Records-s.records)
			e.b = e.take()
			e.b.recs = e.b.recs[:n]
			s.z = generate(e.b.recs, s.z, s.keys)
			s.records += n
			s.cntRecords.Add(n)
			s.phase = phSend
			if !t.Sleep(s.p.g.Cfg.Config.Model.CPU.SlotTime(n, sourcePerRecord.Scale(float64(n)))) {
				return
			}
		case phSend:
			if !e.send(t) {
				return
			}
			s.phase = phNext
		default:
			s.closeOut()
			return
		}
	}
}

// windowStep is the window task's step. It consumes batches in chunks
// up to the window boundary, folding each chunk into the open window as
// it arrives, and at every full window fires the aggregation on the placed
// device, emits one aggregate record per slot downstream, and resumes
// folding the rest of the batch.
func (s *stage) windowStep() {
	t := s.task
	clock := s.p.g.Cluster.Clock
	for {
		switch s.phase {
		case phNext:
			b, ok, wait := s.in.q.GetTask(t)
			if wait {
				return
			}
			if !ok {
				s.phase = phClose
				if s.fill > 0 {
					s.phase = phFire
				}
				continue
			}
			s.cur, s.rest = b, b.recs
			s.phase = phFold
		case phFold:
			if len(s.rest) == 0 {
				n := int64(len(s.cur.recs))
				s.records += n
				s.cntRecords.Add(n)
				s.in.ack(s.cur)
				s.cur = nil
				s.phase = phNext
				continue
			}
			k := min(len(s.rest), s.win.Records-s.fill)
			s.fold(s.rest[:k])
			s.rest = s.rest[k:]
			if s.fill == s.win.Records {
				s.phase = phFire
			}
		case phFire:
			// A CPU window charges the slot time of the sums fold
			// already applied; a GPU window runs the kernel over the
			// packed pairs. Both add the same values in the same order,
			// so the emitted aggregates are bit-identical across
			// placements.
			s.t0 = clock.Now()
			if s.dev == plan.GPU {
				s.submitGPU()
				s.phase = phGPU
				continue
			}
			n := s.fill
			s.phase = phFired
			if !t.Sleep(s.p.g.Cfg.Config.Model.CPU.SlotTime(int64(n), windowPerRecord.Scale(float64(n)))) {
				return
			}
		case phGPU:
			done, err := s.work.WaitTask(t)
			if !done {
				return
			}
			s.collectGPU(err)
			s.phase = phFired
		case phFired:
			s.windows++
			s.cntWindows.Add(1)
			if s.p.tracer.Enabled() {
				s.p.tracer.Record(s.track, "window", "window", s.t0, clock.Now(),
					obs.Int("records", int64(s.fill)),
					obs.Str("placed", s.dev.String()))
			}
			s.phase = phEmit
		case phEmit:
			if !s.emit() {
				return
			}
			clear(s.sums)
			s.fill, s.emitted = 0, 0
			s.phase = phFold
			if s.cur == nil {
				s.phase = phClose
			}
		default:
			s.closeOut()
			return
		}
	}
}

// sinkPerRecord is the sink's per-record folding demand.
var sinkPerRecord = costmodel.Work{Flops: 2, BytesRead: 8}

// sinkStep is the sink task's step: it drains the final edge, charging
// a small folding cost and accumulating the checksum.
func (s *stage) sinkStep() {
	t := s.task
	for {
		switch s.phase {
		case phNext:
			b, ok, wait := s.in.q.GetTask(t)
			if wait {
				return
			}
			if !ok {
				s.finish()
				return
			}
			s.cur = b
			n := int64(len(b.recs))
			s.phase = phCharged
			if !t.Sleep(s.p.g.Cfg.Config.Model.CPU.SlotTime(n, sinkPerRecord.Scale(float64(n)))) {
				return
			}
		case phCharged:
			// Fold the batch in a local, so the loop neither loads
			// nor stores the running total per record.
			sum := s.checksum
			for _, r := range s.cur.recs {
				sum += float64(r.Val) * float64(r.Key+1)
			}
			s.checksum = sum
			n := int64(len(s.cur.recs))
			s.records += n
			s.cntRecords.Add(n)
			s.in.ack(s.cur)
			s.cur = nil
			s.phase = phNext
		}
	}
}

// closeOut ends a producing stage: it closes the output edge, waits on
// the credit semaphore's capacity to observe every batch acked, closes
// the grant path so the courier exits after its last grant, and
// finishes the stage. The step returns after it either way; when the
// credit wait parks, the next step calls closeOut again.
func (s *stage) closeOut() {
	e, all := s.out, int64(s.p.opts.BufferBatches)
	if s.phase == phClose {
		e.closeSend()
		s.phase = phDrained
		if !e.credits.AcquireTask(s.task, all) {
			return
		}
	}
	e.credits.Release(all)
	e.grants.Close()
	s.finish()
}

// finish records the stage's span and ends its task.
func (s *stage) finish() {
	attrs := []obs.Attr{
		obs.Str("kind", s.kind.String()),
		obs.Int("worker", int64(s.worker)),
		obs.Int("records", s.records),
	}
	if s.kind == kWindow {
		attrs = append(attrs, obs.Str("placed", s.dev.String()))
	}
	// Every stage task is spawned at t0 and first runs before the clock
	// advances, so its span starts there.
	s.p.tracer.Record(s.track, "stage", s.name, s.p.t0, s.p.g.Cluster.Clock.Now(), attrs...)
	s.p.exit(s.task)
}

// fold adds recs to the open window in one pass. A CPU window adds each
// value into its slot's sum, the same float additions in the same order
// as kernels.CPUWindowAgg over the packed window. A GPU window writes
// each record once, straight from the batch, as the kernel's packed
// pair: one little-endian uint64, slot | float32 bits << 32.
func (s *stage) fold(recs []Record) {
	slot := s.slot
	if s.dev == plan.GPU {
		in := s.inBuf.Bytes()[s.fill*packedRecordBytes:]
		in = in[:len(recs)*packedRecordBytes]
		for i, r := range recs {
			binary.LittleEndian.PutUint64(in[i*packedRecordBytes:], slot.reduce(r.Key)|uint64(math.Float32bits(r.Val))<<32)
		}
	} else if sums := s.sums; slot.n == 0 {
		for _, r := range recs {
			sums[r.Key&slot.mask] += r.Val
		}
	} else {
		for _, r := range recs {
			sums[r.Key%slot.n] += r.Val
		}
	}
	s.fill += len(recs)
}

// prepareWindow allocates the stage's reusable staging: the packed
// input buffer and slot-table output for the GPU path, which Run frees
// once the stream drains, and the sums table both paths emit from.
func (s *stage) prepareWindow(jobID int) {
	s.sums = make([]float32, s.win.Slots)
	s.slot = newModulus(uint64(s.win.Slots))
	pool := s.p.g.Cluster.TaskManagers[s.worker].Pool
	s.inBuf = pool.MustAllocate(s.win.Records * packedRecordBytes)
	s.outBuf = pool.MustAllocate(s.win.Slots * 4)
	s.jobID = jobID
	s.args[0] = int64(s.win.Slots)
}

// submitGPU lowers the open window onto the GPU path: a pooled GWork
// (shell, In backing and completion event recycled through
// core.WorkPool, so steady-state submission allocates nothing) running
// the windowAgg kernel over the packed pairs.
func (s *stage) submitGPU() {
	n := s.fill
	mgr := s.p.g.Manager(s.worker).Streams
	clear(s.outBuf.Bytes()[:s.win.Slots*4])
	w := mgr.Pool().Get()
	w.ExecuteName = kernels.WindowAggKernel
	w.Size = n
	w.Nominal = int64(n)
	w.BlockSize = 256
	w.GridSize = (n + 255) / 256
	// The pooled In backing keeps its capacity, so only a fresh shell grows it.
	w.In = append(w.In, core.Input{Buf: s.inBuf, Nominal: int64(n) * packedRecordBytes})
	w.Out = s.outBuf
	w.OutNominal = int64(s.win.Slots) * 4
	w.Args = s.args[:1]
	w.JobID = s.jobID
	mgr.Submit(w)
	s.work = w
}

// collectGPU returns the window's completed GWork to the pool and reads
// its slot table into the sums.
func (s *stage) collectGPU(err error) {
	s.p.g.Manager(s.worker).Streams.Pool().Put(s.work)
	s.work = nil
	if err != nil {
		panic(fmt.Sprintf("stream: window %q kernel failed: %v", s.name, err))
	}
	out := s.outBuf.Bytes()[:s.win.Slots*4]
	for i := range s.sums {
		s.sums[i] = math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
	}
}

// emit streams the fired window's slot sums downstream as one record
// per slot, batched like any other traffic. It returns true once every
// sum is sent, and false when the task parked in a send; the next call
// resumes that send.
func (s *stage) emit() bool {
	e, batchLen := s.out, s.p.opts.BatchRecords
	for {
		if e.b != nil && !e.send(s.task) {
			return false
		}
		if s.emitted == len(s.sums) {
			return true
		}
		e.b = e.take()
		first, end := s.emitted, min(len(s.sums), s.emitted+batchLen)
		sums := s.sums[first:end]
		recs := e.b.recs[:len(sums)]
		for j, v := range sums {
			recs[j] = Record{Key: uint64(first + j), Val: v}
		}
		e.b.recs = recs
		s.emitted = end
	}
}

// generate fills recs from splitmix64 (the workloads package's
// generator) and returns the advanced state. Record i of a source
// keyed by seed is drawn at state seed + γ·(i+1); advancing the state
// by γ per record is the same uint64 value as recomputing the product,
// so sources are deterministic at any batch size. The mask and %
// reductions run as separate loops, and generate stays out of the
// source's step, whose loop index would otherwise spill per record.
// The mask loop has an AVX-512 body on amd64 (generateMask); the % loop
// stays scalar, since there is no exact 64-bit vector remainder.
//
//go:noinline
func generate(recs []Record, z uint64, keys modulus) uint64 {
	if keys.n == 0 {
		return generateMask(recs, z, keys.mask)
	}
	for j := range recs {
		z += 0x9e3779b97f4a7c15
		h := mix(z)
		recs[j] = Record{Key: h % keys.n, Val: unit(h)}
	}
	return z
}

// generateMaskGo is generate's mask loop in Go: the portable twin of
// the AVX-512 body and the loop that draws its tail.
func generateMaskGo(recs []Record, z, mask uint64) uint64 {
	for j := range recs {
		z += 0x9e3779b97f4a7c15
		h := mix(z)
		recs[j] = Record{Key: h & mask, Val: unit(h)}
	}
	return z
}

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	h := (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// unit maps a mixed hash to a float32 in [0, 1). h>>40 is below 2^24,
// so the int32 conversion is exact and cheaper than one from uint64.
func unit(h uint64) float32 {
	return float32(int32(h>>40)) / float32(1<<24)
}

// modulus reduces x mod n exactly: with a mask when n is a power of
// two, with plain % otherwise. Stages build it once, so the per-record
// loops pay no 64-bit division in the common power-of-two shapes.
type modulus struct {
	// n is the divisor, or 0 when n is a power of two and mask (n-1)
	// does the reduction.
	n, mask uint64
}

// newModulus returns the reduction by n, which must be positive.
func newModulus(n uint64) modulus {
	if n&(n-1) == 0 {
		return modulus{mask: n - 1}
	}
	return modulus{n: n}
}

func (m modulus) reduce(x uint64) uint64 {
	if m.n == 0 {
		return x & m.mask
	}
	return x % m.n
}
