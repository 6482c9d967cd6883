// Package plan is GFlink's deferred dataflow layer: the JobGraph that
// real Flink builds between the program and the scheduler. Operators on
// typed Streams append nodes to a Graph instead of deploying tasks;
// Execute submits the job and materializes the graph, running two
// planner passes first:
//
//   - operator chaining — maximal runs of consecutive narrow
//     per-partition nodes (map, filter) fuse into one task
//     per partition, so the chain deploys once and charges the
//     per-record iterator overhead once (Flink's operator chaining;
//     Options.DisableChaining keeps the unfused path measurable for
//     the abl-chaining ablation);
//   - placement — Either nodes carry both a CPU body and a GPU body,
//     and the graph's Mode picks one for all of them: the programmer
//     chooses the device, as a GFlink program does by calling gpuMap
//     or a plain Flink operator.
//
// Determinism survives planning by construction: the driver still runs
// nodes sequentially in program order on one virtual-time process, a
// fused chain charges exactly the sum of its members' compute demands
// (only deploy rounds and downstream record overheads disappear), and
// placement is a function of the Mode alone — never of the clock, map
// iteration order, or scheduling.
package plan

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/obs"
)

// Mode selects the body every Either node runs: the placement rule of
// the plan and stream layers.
type Mode int

const (
	// ForceCPU runs every Either node's CPU body (the zero value).
	ForceCPU Mode = iota
	// ForceGPU runs every Either node's GPU body.
	ForceGPU
)

func (m Mode) String() string {
	if m == ForceGPU {
		return "gpu"
	}
	return "cpu"
}

// Device is the device a mode places on; its String is the "placed"
// span attribute.
func (m Mode) Device() Device {
	if m == ForceGPU {
		return GPU
	}
	return CPU
}

// Device is a placement: the device an Either node or window ran on.
type Device int

const (
	CPU Device = iota
	GPU
)

func (d Device) String() string {
	if d == GPU {
		return "GPU"
	}
	return "CPU"
}

// Options configure one graph's planning.
type Options struct {
	Mode Mode
	// DisableChaining skips the chaining pass, executing every narrow
	// node as its own eager operator (the abl-chaining baseline).
	DisableChaining bool
}

// nodeActual accumulates a stage's simulated execution time across
// runs (iteration bodies execute their nodes once per iteration).
type nodeActual struct {
	total time.Duration
	runs  int
}

// state is the planning and execution state shared by a Graph and the
// per-iteration subgraphs Iterate builds.
type state struct {
	g      *core.GFlink
	opts   Options
	job    *flink.Job
	tracer *obs.Tracer

	actuals map[string]nodeActual
	// actualOrder lists the actuals' names in first-run order.
	actualOrder []string
}

// Graph is a deferred job: an ordered list of plan nodes built by the
// driver program and materialized by Execute. The per-iteration
// subgraphs Iterate builds share the parent's planning state but have
// their own node lists (and are built after the parent executed).
type Graph struct {
	st       *state
	name     string
	nodes    []*node
	executed bool
}

// NewGraph starts an empty plan against a deployment. Nothing touches
// the virtual clock until Execute.
func NewGraph(g *core.GFlink, name string, opts Options) *Graph {
	return &Graph{
		st: &state{
			g:       g,
			opts:    opts,
			tracer:  g.Obs.Tracer(),
			actuals: make(map[string]nodeActual),
		},
		name: name,
	}
}

// nodeKind discriminates plan nodes. Narrow record-at-a-time kinds
// (map, filter) are the chainable ones.
type nodeKind int

const (
	kSource nodeKind = iota
	kMap
	kFilter
	kReduceByKey
	kGPUMap
	kGPUReduce
	kEither
	kIterate
	kSink
	kDo
	kChain
)

// node is one deferred operator. run consumes the materialized value of
// the upstream node (nil for sources and driver nodes) and returns its
// own. Chainable nodes additionally carry the type-erased closures the
// fusion pass stitches together (see chain.go).
type node struct {
	kind nodeKind
	name string
	up   *node
	run  func(ctx *Ctx, in any) any

	// chainLen is the member count of fused chains (0 otherwise), for
	// the observability layer (spans, Explain).
	chainLen int

	// chainable metadata (kMap, kFilter); rec transforms one record
	// and reports false for a record a filter drops
	perRec   costmodel.Work
	outBytes int // -1: keep the input record size (filter)
	rec      func(v any) (any, bool)
	erase    func(ds any) []epart
	build    func(j *flink.Job, recordBytes int, parts []epart) any

	// fused-chain alias: results are stored under the last member so
	// downstream up-pointers keep resolving (see runNodes).
	aliasFor *node
}

func (n *node) chainable() bool {
	return n.kind == kMap || n.kind == kFilter
}

func (k nodeKind) String() string {
	switch k {
	case kSource:
		return "source"
	case kMap:
		return "map"
	case kFilter:
		return "filter"
	case kReduceByKey:
		return "reduceByKey"
	case kGPUMap:
		return "gpuMap"
	case kGPUReduce:
		return "gpuReduce"
	case kEither:
		return "either"
	case kIterate:
		return "iterate"
	case kSink:
		return "sink"
	case kDo:
		return "do"
	case kChain:
		return "chain"
	default:
		return "unknown"
	}
}

func (gr *Graph) add(n *node) {
	if gr.executed {
		panic("plan: cannot append nodes to an executed graph")
	}
	gr.nodes = append(gr.nodes, n)
}

// Ctx is what node bodies see at execution time: the deployment and the
// materialized job.
type Ctx struct {
	G   *core.GFlink
	Job *flink.Job
	st  *state
}

// Execute materializes the graph: submit the job (charging the usual
// submission overhead), fuse chains unless disabled, then run the
// nodes sequentially on the calling driver process — the same
// synchronous driver semantics the eager engine has, which is why a
// planned program's virtual-time trace matches its eager equivalent.
func (gr *Graph) Execute() {
	st := gr.st
	if gr.executed {
		panic("plan: graph already executed")
	}
	gr.executed = true
	clock := st.g.Cluster.Clock
	t0 := clock.Now()
	st.job = st.g.Cluster.NewJob(gr.name)
	ctx := &Ctx{G: st.g, Job: st.job, st: st}
	gr.runNodes(ctx)
	st.tracer.Record(driverTrack, "plan", "plan:"+gr.name, t0, clock.Now(),
		obs.Str("mode", st.opts.Mode.String()),
		obs.Bool("chaining", !st.opts.DisableChaining),
		obs.Int("nodes", int64(len(gr.nodes))))
}

// driverTrack is the trace track plan-layer spans land on: the driver
// program runs on one virtual-time process, so one track suffices.
const driverTrack = "driver"

// recordNode folds one node execution into the actuals table and emits
// its span; an Either node's span names the device its body ran on.
func (st *state) recordNode(n *node, t0, t1 time.Duration) {
	key := n.name
	a := st.actuals[key]
	if a.runs == 0 {
		st.actualOrder = append(st.actualOrder, key)
	}
	a.total += t1 - t0
	a.runs++
	st.actuals[key] = a
	attrs := []obs.Attr{obs.Str("kind", n.kind.String())}
	if n.chainLen > 0 {
		attrs = append(attrs, obs.Int("fused", int64(n.chainLen)))
	}
	if n.kind == kEither {
		attrs = append(attrs, obs.Str("placed", st.opts.Mode.Device().String()))
	}
	st.tracer.Record(driverTrack, "stage", n.name, t0, t1, attrs...)
}

// runNodes executes the (possibly fused) node list in order. Values
// flow through a map keyed by producing node; a fused chain stores its
// result under its last member so unfused up-pointers still resolve.
func (gr *Graph) runNodes(ctx *Ctx) {
	nodes := gr.nodes
	if !gr.st.opts.DisableChaining {
		nodes = fuseChains(nodes)
	}
	clock := gr.st.g.Cluster.Clock
	vals := make(map[*node]any, len(nodes))
	for _, n := range nodes {
		var in any
		if n.up != nil {
			in = vals[n.up]
		}
		t0 := clock.Now()
		out := n.run(ctx, in)
		gr.st.recordNode(n, t0, clock.Now())
		if n.aliasFor != nil {
			vals[n.aliasFor] = out
		} else {
			vals[n] = out
		}
	}
}

// IterStats carries the per-iteration durations an Iterate node
// measured, populated during Execute.
type IterStats struct {
	Durations []time.Duration
}

// Iterate appends a bulk-iteration node: body builds a fresh subgraph
// for each iteration (so per-iteration staging such as a first-pass
// HDFS read stays expressible), the subgraph runs through the same
// chaining and placement rules, and a superstep barrier closes
// every iteration, charged through flink.Job.Superstep.
func Iterate(gr *Graph, name string, n int, body func(it int, sub *Graph)) *IterStats {
	stats := &IterStats{}
	gr.add(&node{
		kind: kIterate,
		name: "iterate:" + name,
		run: func(ctx *Ctx, _ any) any {
			clock := ctx.G.Cluster.Clock
			for it := 0; it < n; it++ {
				t0 := clock.Now()
				sub := &Graph{st: gr.st, name: gr.name}
				body(it, sub)
				sub.runNodes(ctx)
				ctx.Job.Superstep()
				t1 := clock.Now()
				stats.Durations = append(stats.Durations, t1-t0)
				gr.st.tracer.Record(driverTrack, "iteration",
					fmt.Sprintf("%s#%d", name, it), t0, t1,
					obs.Int("iteration", int64(it)))
			}
			return nil
		},
	})
	return stats
}

// Do appends a driver-side node: fn runs on the driver process at this
// point of the program, for staging, timing probes and cleanup that are
// not dataset transformations.
func Do(gr *Graph, name string, fn func(ctx *Ctx)) {
	gr.add(&node{
		kind: kDo,
		name: "do:" + name,
		run: func(ctx *Ctx, _ any) any {
			fn(ctx)
			return nil
		},
	})
}

// EitherDo appends a driver-side Either node: the GPU body runs iff the
// graph's mode is ForceGPU. Workloads whose CPU and GPU paths differ in
// driver structure (different source representations, staged buffers,
// block cleanup) express each path as one body.
func EitherDo(gr *Graph, name string, cpu, gpu func(ctx *Ctx)) {
	gr.add(&node{
		kind: kEither,
		name: "either:" + name,
		run: func(ctx *Ctx, _ any) any {
			if ctx.st.opts.Mode == ForceGPU {
				gpu(ctx)
			} else {
				cpu(ctx)
			}
			return nil
		},
	})
}
