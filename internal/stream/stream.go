// Package stream is GFlink's DataStream layer: the unbounded-source
// counterpart to package plan's one-shot batch graphs. A Pipeline is a
// linear chain of stages — a generator source, tumbling-window keyed
// aggregations, a sink — each running as its own virtual-time process
// on a worker node, connected by bounded edges with credit-based
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
//   - window aggregation is an Either stage: the planner compares
//     costmodel estimates exactly like plan's placement pass and lowers
//     the window onto the GPU map/reduce path (pooled GWorks through
//     core.WorkPool, so steady-state submission stays allocation-free)
//     or onto a CPU slot. Keys are pre-hashed to slots on the host and
//     both bodies replay the same float additions in the same order, so
//     results are bit-identical across placements.
//
// Determinism is inherited from the substrate: stages are cooperative
// vclock processes, edges are FIFO queues and semaphores, and every
// span/counter timestamp is a virtual-clock reading — a pipeline run is
// byte-identical across GOMAXPROCS settings and repeat runs.
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
	// Mode pins window stages to a device, or lets the cost model
	// decide (plan.Auto, the default).
	Mode plan.Mode
	// BatchRecords is the records per micro-batch (default 256). One
	// batch is the unit of network transfer and credit accounting.
	BatchRecords int
	// BufferBatches is the per-edge credit count — the bounded buffer
	// depth in batches (default 4). 1 serializes every batch against
	// the full credit round trip.
	BufferBatches int
	// RecordBytes is the nominal wire size of one record on the
	// cluster network (default 64; the packed GPU staging form is
	// always 8 bytes).
	RecordBytes int64
	// Tracer receives per-stage and per-window spans. Nil means the
	// deployment's own tracer.
	Tracer *obs.Tracer
	// Metrics receives the stream.* counters. Nil means the
	// deployment's own registry.
	Metrics *obs.Registry
}

// Option mutates Options before construction (the same functional-
// option shape as core.NewMemoryManager's MemOption).
type Option func(*Options)

// WithMode pins window placement (plan.ForceCPU / plan.ForceGPU) or
// restores cost-model placement (plan.Auto).
func WithMode(m plan.Mode) Option { return func(o *Options) { o.Mode = m } }

// WithBatchRecords sets the records per micro-batch.
func WithBatchRecords(n int) Option { return func(o *Options) { o.BatchRecords = n } }

// WithBufferBatches sets the per-edge credit count (buffer depth).
func WithBufferBatches(n int) Option { return func(o *Options) { o.BufferBatches = n } }

// WithRecordBytes sets the nominal per-record wire size.
func WithRecordBytes(n int64) Option { return func(o *Options) { o.RecordBytes = n } }

// WithTracer directs the pipeline's spans to t.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithMetrics directs the stream.* counters to r.
func WithMetrics(r *obs.Registry) Option { return func(o *Options) { o.Metrics = r } }

// Trigger decides when a window fires. Only count-based tumbling
// triggers exist; the type is a named wrapper so event-time triggers
// can slot in without changing WindowSpec.
type Trigger struct {
	records int
}

// TumblingCount returns a trigger that fires every n records.
func TumblingCount(n int) Trigger { return Trigger{records: n} }

// Records returns the trigger's window width in records.
func (t Trigger) Records() int { return t.records }

func (t Trigger) String() string { return fmt.Sprintf("tumbling(%d)", t.records) }

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
	// PerRecord is the CPU demand of producing one record (decode,
	// validate). Zero means DefaultSourcePerRecord.
	PerRecord costmodel.Work
}

// DefaultSourcePerRecord is the demand of producing one record on the
// source's CPU slot: a cheap decode, so a source outruns any
// non-trivial consumer and backpressure is the governing mechanism.
var DefaultSourcePerRecord = costmodel.Work{Flops: 8, BytesRead: 16, BytesWritten: 8}

// WindowSpec configures a tumbling-window keyed aggregation stage.
type WindowSpec struct {
	// Trigger fires the window (TumblingCount; required).
	Trigger Trigger
	// Slots is the dense key-slot table size keys hash into (default
	// 256). The stage emits one aggregate record per slot per window.
	Slots int
	// Group names the placement group of the stage's CPU/GPU decision,
	// for Placement lookups and span attributes (default: stage name).
	Group string
	// PerRecordCPU is the CPU body's per-record aggregation demand.
	// Zero means DefaultWindowPerRecord.
	PerRecordCPU costmodel.Work
}

// DefaultWindowPerRecord is the CPU body's per-record demand: heavy
// enough (a few thousand flops — sessionization, model scoring) that a
// CPU-placed consumer is the pipeline bottleneck, which is the
// rate-mismatch regime the backpressure experiments reproduce.
var DefaultWindowPerRecord = costmodel.Work{Flops: 4500, BytesRead: 64, BytesWritten: 8}

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
// stages, Run spawns them as virtual-time processes and waits for the
// bounded stream to drain. Mirrors plan.Graph: construction never
// touches the clock.
type Pipeline struct {
	g       *core.GFlink
	name    string
	opts    Options
	tracer  *obs.Tracer
	metrics *obs.Registry

	stages    []*stage
	decisions map[string]plan.Device
	ests      map[string]ratePair
	ran       bool
}

type ratePair struct{ cpu, gpu time.Duration }

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
	if o.RecordBytes <= 0 {
		o.RecordBytes = 64
	}
	if o.Tracer == nil {
		o.Tracer = g.Obs.Tracer()
	}
	if o.Metrics == nil {
		o.Metrics = g.Obs.Metrics()
	}
	return &Pipeline{
		g: g, name: name, opts: o,
		tracer: o.Tracer, metrics: o.Metrics,
		decisions: make(map[string]plan.Device),
		ests:      make(map[string]ratePair),
	}
}

// Options returns the pipeline's resolved options.
func (p *Pipeline) Options() Options { return p.opts }

// Placement reports the device a window group resolved to; ok is false
// before Run decided it.
func (p *Pipeline) Placement(group string) (plan.Device, bool) {
	d, ok := p.decisions[group]
	return d, ok
}

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

// stage is one pipeline stage. Each stage runs as a single virtual-time
// process, so its mutable fields need no locking.
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

	// run measurements, aggregated into Result after the group joins.
	records, batches, windows int64
	blocked                   time.Duration
	checksum                  float64

	// window state: fill records folded into the open window, the slot
	// sums emitted when it fires
	fill int
	sums []float32
	slot modulus
	dev  plan.Device
	// GPU-path staging: host buffers reused across windows, plus the
	// one-element Args backing (WorkPool.Put drops Args, whose backing
	// belongs to the submitter).
	inBuf, outBuf *membuf.HBuffer
	args          [1]int64
	jobID         int
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
	if spec.PerRecord == (costmodel.Work{}) {
		spec.PerRecord = DefaultSourcePerRecord
	}
	s := p.addStage(kSource, name, worker)
	s.src = spec
	return &Stage{s: s}
}

// Window appends a tumbling-window keyed aggregation stage downstream
// of up, pinned to a worker node. Placement (CPU slot vs pooled GWorks
// on the worker's GPUs) follows the pipeline's Mode and the cost model.
func (up *Stage) Window(name string, worker int, spec WindowSpec) *Stage {
	p := up.s.p
	if up.s.kind == kSink {
		panic("stream: cannot consume from a sink")
	}
	if spec.Trigger.records <= 0 {
		panic("stream: WindowSpec.Trigger must be a positive TumblingCount")
	}
	if spec.Slots <= 0 {
		spec.Slots = 256
	}
	if spec.Group == "" {
		spec.Group = name
	}
	if spec.PerRecordCPU == (costmodel.Work{}) {
		spec.PerRecordCPU = DefaultWindowPerRecord
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

// decide places one window stage by plan's rule (plan.Mode.Place),
// comparing one window's cost-model estimate on a CPU slot against the
// GPU path (packed H2D, windowAgg kernel, slot-table D2H).
func (p *Pipeline) decide(s *stage) plan.Device {
	if d, ok := p.decisions[s.win.Group]; ok {
		return d
	}
	width := int64(s.win.Trigger.records)
	cost := costmodel.StageCost{
		Records:      width,
		CPUPerRec:    s.win.PerRecordCPU,
		GPUWork:      kernels.WindowAggWork(width),
		HostToDevice: width * packedRecordBytes,
		DeviceToHost: int64(s.win.Slots) * 4,
	}
	m := p.g.Cfg.Config.Model
	est := ratePair{
		cpu: m.EstimateCPUStage(cost),
		gpu: m.EstimateGPUStage(p.g.Cfg.GPUProfile, cost),
	}
	p.ests[s.win.Group] = est
	d := p.opts.Mode.Place(est.cpu, est.gpu)
	p.decisions[s.win.Group] = d
	return d
}

// Run materializes the pipeline: submit the job (charging the usual
// submission overhead), decide window placements, spawn one process
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
			s.dev = p.decide(s)
			s.prepareWindow(job.ID)
		}
	}
	t0 := clock.Now()
	grp := vclock.NewGroup(clock)
	for _, s := range p.stages {
		s := s
		if s.out != nil {
			s.out.open(clock)
			grp.Go(s.track+"/credits", s.out.courier)
		}
		grp.Go(s.track, s.run)
	}
	grp.Wait()
	makespan := clock.Now() - t0

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

// batch is the unit of transfer and credit accounting. Shells circulate
// producer -> consumer -> (with the credit grant) back to the producer,
// so a stage allocates at most BufferBatches+1 of them.
type batch struct {
	recs []Record
}

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
	// the producing stage's process.
	depthMax int
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
	//gflink:allow-alloc cold start: at most BufferBatches+1 shells per edge, recycled by the courier thereafter
	return &batch{recs: make([]Record, 0, e.p.opts.BatchRecords)}
}

// send ships one batch downstream: acquire a credit (blocking on the
// virtual clock when the buffer is full — the metered backpressure
// signal), pay the network transfer at nominal record size, enqueue.
//
//gflink:hotpath
func (e *edge) send(b *batch) {
	clock := e.p.g.Cluster.Clock
	t0 := clock.Now()
	e.credits.Acquire(1)
	if blocked := clock.Now() - t0; blocked > 0 {
		e.from.blocked += blocked
		e.from.cntBlocked.Add(int64(blocked))
		e.p.tracer.Record(e.from.track, "backpressure", "credit-wait", t0, clock.Now())
	}
	e.p.g.Cluster.Net.Transfer(e.from.worker, e.to.worker, int64(len(b.recs))*e.p.opts.RecordBytes)
	e.q.Put(b)
	if d := e.q.Len(); d > e.depthMax {
		e.depthMax = d
		e.from.cntDepth.Max(int64(d))
	}
	e.from.batches++
	e.from.cntBatches.Add(1)
}

// closeSend marks the stream drained: consumers observe end-of-stream
// once the buffered batches are processed, and the courier exits after
// returning the outstanding credits.
func (e *edge) closeSend() { e.q.Close() }

// ack returns the consumed batch's credit (and its shell) to the
// producer. The grant itself is carried by the edge's courier process
// so the network latency of the control message never stalls the
// consumer.
func (e *edge) ack(b *batch) { e.grants.Put(b) }

// courier is the per-edge credit-return process: for every processed
// batch it pays the control-message transfer back to the producer,
// recycles the shell and releases the credit.
//
//gflink:hotpath
func (e *edge) courier() {
	for {
		b, ok := e.grants.Get()
		if !ok {
			return
		}
		e.p.g.Cluster.Net.Transfer(e.to.worker, e.from.worker, costmodel.StreamCreditBytes)
		e.free.Put(b)
		e.credits.Release(1)
		e.from.cntGrants.Add(1)
	}
}

// run executes the stage's process until its input drains.
func (s *stage) run() {
	clock := s.p.g.Cluster.Clock
	start := clock.Now()
	switch s.kind {
	case kSource:
		s.runSource()
	case kWindow:
		s.runWindow()
	case kSink:
		s.runSink()
	}
	attrs := []obs.Attr{
		obs.Str("kind", s.kind.String()),
		obs.Int("worker", int64(s.worker)),
		obs.Int("records", s.records),
	}
	if s.kind == kWindow {
		attrs = append(attrs, obs.Str("placed", s.dev.String()))
	}
	s.p.tracer.Record(s.track, "stage", s.name, start, clock.Now(), attrs...)
}

// runSource generates records batch by batch, charging the production
// cost on the source worker's CPU and pushing each batch through the
// credit-bounded edge.
func (s *stage) runSource() {
	clock := s.p.g.Cluster.Clock
	model := s.p.g.Cfg.Config.Model
	keys, z := newModulus(uint64(s.src.Keys)), s.src.Seed
	total, batchLen := s.src.Records, int64(s.p.opts.BatchRecords)
	for i := int64(0); i < total; {
		n := min(batchLen, total-i)
		b := s.out.take()
		b.recs = b.recs[:n]
		z = generate(b.recs, z, keys)
		i += n
		clock.Sleep(model.CPU.SlotTime(n, s.src.PerRecord.Scale(float64(n))))
		s.records += n
		s.cntRecords.Add(n)
		s.out.send(b)
	}
	s.out.closeSend()
	s.ackGrantsClosed()
}

// ackGrantsClosed closes the grant path once every credit came home, so
// the courier exits after its last grant. Called by the producer after
// closeSend: all batches are acked by then or still in flight, and
// waiting on the credit semaphore's capacity observes the drain.
func (s *stage) ackGrantsClosed() {
	e := s.out
	e.credits.Acquire(int64(s.p.opts.BufferBatches))
	e.credits.Release(int64(s.p.opts.BufferBatches))
	e.grants.Close()
}

// runWindow consumes batches in chunks up to the window boundary,
// folding each chunk into the open window as it arrives, and on every
// trigger fires the aggregation on the placed device, emitting one
// aggregate record per slot downstream.
func (s *stage) runWindow() {
	width := s.win.Trigger.records
	for {
		b, ok := s.in.q.Get()
		if !ok {
			break
		}
		for recs := b.recs; len(recs) > 0; {
			k := min(len(recs), width-s.fill)
			s.fold(recs[:k])
			recs = recs[k:]
			if s.fill == width {
				s.fireWindow()
			}
		}
		n := int64(len(b.recs))
		s.records += n
		s.cntRecords.Add(n)
		s.in.ack(b)
	}
	if s.fill > 0 {
		s.fireWindow()
	}
	s.out.closeSend()
	s.ackGrantsClosed()
}

// fold adds recs to the open window in one pass. A CPU window adds each
// value into its slot's sum, the same float additions in the same order
// as kernels.CPUWindowAgg over the packed window. A GPU window writes
// each record once, straight from the batch, as the kernel's packed
// pair: one little-endian uint64, slot | float32 bits << 32.
//
//gflink:hotpath
func (s *stage) fold(recs []Record) {
	slot := s.slot
	if s.dev == plan.GPU {
		in := s.inBuf.Bytes()[s.fill*packedRecordBytes:]
		in = in[:len(recs)*packedRecordBytes]
		for i, r := range recs {
			binary.LittleEndian.PutUint64(in[i*packedRecordBytes:], slot.reduce(r.Key)|uint64(math.Float32bits(r.Val))<<32)
		}
	} else {
		sums := s.sums
		for _, r := range recs {
			sums[slot.reduce(r.Key)] += r.Val
		}
	}
	s.fill += len(recs)
}

// prepareWindow allocates the stage's reusable staging: the packed
// input buffer and slot-table output for the GPU path, and the sums
// table both paths emit from.
func (s *stage) prepareWindow(jobID int) {
	s.sums = make([]float32, s.win.Slots)
	s.slot = newModulus(uint64(s.win.Slots))
	pool := s.p.g.Cluster.TaskManagers[s.worker].Pool
	s.inBuf = pool.MustAllocate(s.win.Trigger.records * packedRecordBytes)
	s.outBuf = pool.MustAllocate(s.win.Slots * 4)
	s.jobID = jobID
	s.args[0] = int64(s.win.Slots)
}

// fireWindow completes the open window on the placed device: a CPU
// window charges the slot time of the sums fold already applied, a GPU
// window runs the kernel over the packed pairs. Both add the same
// values in the same order, so the emitted aggregates are bit-identical
// across placements.
//
//gflink:hotpath
func (s *stage) fireWindow() {
	clock := s.p.g.Cluster.Clock
	n := s.fill
	t0 := clock.Now()

	if s.dev == plan.GPU {
		s.aggGPU(n)
	} else {
		model := s.p.g.Cfg.Config.Model
		clock.Sleep(model.CPU.SlotTime(int64(n), s.win.PerRecordCPU.Scale(float64(n))))
	}

	s.windows++
	s.cntWindows.Add(1)
	if s.p.tracer.Enabled() {
		s.p.tracer.Record(s.track, "window", "window", t0, clock.Now(),
			obs.Int("records", int64(n)),
			obs.Str("placed", s.dev.String()))
	}
	s.emitAggregates()
	clear(s.sums)
	s.fill = 0
}

// aggGPU lowers one window onto the GPU path: a pooled GWork (shell,
// In backing and completion event recycled through core.WorkPool, so
// steady-state submission allocates nothing) running the windowAgg
// kernel over the packed pairs.
func (s *stage) aggGPU(n int) {
	mgr := s.p.g.Manager(s.worker).Streams
	wp := mgr.Pool()
	out := s.outBuf.Bytes()[:s.win.Slots*4]
	clear(out)
	w := wp.Get()
	w.ExecuteName = kernels.WindowAggKernel
	w.Size = n
	w.Nominal = int64(n)
	w.BlockSize = 256
	w.GridSize = (n + 255) / 256
	//gflink:allow-alloc the pooled In backing keeps its capacity, so only a fresh shell grows it
	w.In = append(w.In, core.Input{Buf: s.inBuf, Nominal: int64(n) * packedRecordBytes})
	w.Out = s.outBuf
	w.OutNominal = int64(s.win.Slots) * 4
	w.Args = s.args[:1]
	w.JobID = s.jobID
	mgr.Submit(w)
	err := w.Wait()
	wp.Put(w)
	if err != nil {
		//gflink:allow-alloc error diagnostic: a failed kernel ends the simulation
		panic(fmt.Sprintf("stream: window %q kernel failed: %v", s.name, err))
	}
	for i := range s.sums {
		s.sums[i] = math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
	}
}

// emitAggregates streams the window's slot sums downstream as one
// record per slot, batched like any other traffic.
//
//gflink:hotpath
func (s *stage) emitAggregates() {
	e := s.out
	var b *batch
	for slot, sum := range s.sums {
		if b == nil {
			b = e.take()
		}
		//gflink:allow-alloc never grows: take's shells hold BatchRecords and a full batch is sent
		b.recs = append(b.recs, Record{Key: uint64(slot), Val: sum})
		if len(b.recs) == s.p.opts.BatchRecords {
			e.send(b)
			b = nil
		}
	}
	if b != nil {
		e.send(b)
	}
}

// sinkPerRecord is the sink's per-record folding demand.
var sinkPerRecord = costmodel.Work{Flops: 2, BytesRead: 8}

// runSink drains the final edge, charging a small folding cost and
// accumulating the checksum.
func (s *stage) runSink() {
	clock := s.p.g.Cluster.Clock
	model := s.p.g.Cfg.Config.Model
	for {
		b, ok := s.in.q.Get()
		if !ok {
			return
		}
		n := int64(len(b.recs))
		clock.Sleep(model.CPU.SlotTime(n, sinkPerRecord.Scale(float64(n))))
		for _, r := range b.recs {
			s.checksum += float64(r.Val) * float64(r.Key+1)
		}
		s.records += n
		s.cntRecords.Add(n)
		s.in.ack(b)
	}
}

// generate fills recs from splitmix64 (the workloads package's
// generator) and returns the advanced state. Record i of a source
// keyed by seed is drawn at state seed + γ·(i+1); advancing the state
// by γ per record is the same uint64 value as recomputing the product,
// so sources are deterministic at any batch size.
func generate(recs []Record, z uint64, keys modulus) uint64 {
	for j := range recs {
		z += 0x9e3779b97f4a7c15
		h := (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
		recs[j] = Record{Key: keys.reduce(h), Val: unit(h)}
	}
	return z
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
