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
//   - placement — Either nodes carry both a CPU body and a GPU body
//     under a named placement group, and the planner resolves each
//     group to a device from costmodel.StageCost estimates (forced-CPU
//     and forced-GPU modes pin the decision, preserving every
//     pre-refactor benchmark configuration).
//
// Determinism survives planning by construction: the driver still runs
// nodes sequentially in program order on one virtual-time process, a
// fused chain charges exactly the sum of its members' compute demands
// (only deploy rounds and downstream record overheads disappear), and
// placement decisions are pure functions of the cost model — never of
// the clock, map iteration order, or scheduling.
package plan

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/obs"
)

// Mode selects how Either nodes are placed.
type Mode int

const (
	// Auto lets the cost model pick per placement group.
	Auto Mode = iota
	// ForceCPU pins every Either node to its CPU body.
	ForceCPU
	// ForceGPU pins every Either node to its GPU body.
	ForceGPU
)

func (m Mode) String() string {
	switch m {
	case ForceCPU:
		return "cpu"
	case ForceGPU:
		return "gpu"
	default:
		return "auto"
	}
}

// Place is the placement rule of the plan and stream layers: forced
// modes pin the device; Auto takes the GPU only when its estimate is
// strictly lower, so ties go to the CPU (the conservative choice — no
// PCIe dependence).
func (m Mode) Place(cpu, gpu time.Duration) Device {
	switch m {
	case ForceCPU:
		return CPU
	case ForceGPU:
		return GPU
	}
	if gpu < cpu {
		return GPU
	}
	return CPU
}

// Device is a placement decision.
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

// stageEst is the pair of cost-model estimates behind one placement
// decision, kept for Explain and the per-node spans.
type stageEst struct {
	cpu, gpu time.Duration
	forced   bool
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

	groups     map[string]costmodel.StageCost
	groupOrder []string
	decisions  map[string]Device
	ests       map[string]stageEst
	actuals    map[string]nodeActual
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
			g:         g,
			opts:      opts,
			tracer:    g.Obs.Tracer(),
			groups:    make(map[string]costmodel.StageCost),
			decisions: make(map[string]Device),
			ests:      make(map[string]stageEst),
			actuals:   make(map[string]nodeActual),
		},
		name: name,
	}
}

// PlaceGroup declares a placement group and its cost estimate. Every
// Either node names a group; declaring the cost once lets stages that
// must land together (a GPU source feeding a GPU kernel) share one
// decision. Declaration order fixes decision order, keeping auto
// placement deterministic.
func (gr *Graph) PlaceGroup(group string, cost costmodel.StageCost) {
	st := gr.st
	if _, ok := st.groups[group]; !ok {
		st.groupOrder = append(st.groupOrder, group)
	}
	st.groups[group] = cost
}

// Placement reports the device a group resolved to; ok is false before
// the placement pass has decided it.
func (gr *Graph) Placement(group string) (Device, bool) {
	d, ok := gr.st.decisions[group]
	return d, ok
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

	// group is the placement group of Either nodes ("" otherwise);
	// chainLen is the member count of fused chains (0 otherwise). Both
	// exist for the observability layer (spans, Explain).
	group    string
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

// Placement resolves a placement group to a device, deciding it from
// the declared cost on first use (subgraph nodes can reference groups
// the top-level pass has not seen).
func (c *Ctx) Placement(group string) Device {
	return c.st.place(group)
}

func (st *state) place(group string) Device {
	if d, ok := st.decisions[group]; ok {
		return d
	}
	cost, ok := st.groups[group]
	if !ok {
		panic(fmt.Sprintf("plan: placement group %q not declared via PlaceGroup", group))
	}
	d := st.decide(group, cost)
	st.decisions[group] = d
	return d
}

// decide applies Mode.Place to the cost-model estimates of one group.
// The estimates are recorded (for Explain and spans) even when the mode
// forces the decision — they are pure functions of the cost model, so
// recording them perturbs nothing.
func (st *state) decide(group string, cost costmodel.StageCost) Device {
	m := st.g.Cfg.Config.Model
	cpuT := m.EstimateCPUStage(cost)
	gpuT := m.EstimateGPUStage(st.g.Cfg.GPUProfile, cost)
	forced := st.opts.Mode == ForceCPU || st.opts.Mode == ForceGPU
	st.ests[group] = stageEst{cpu: cpuT, gpu: gpuT, forced: forced}
	return st.opts.Mode.Place(cpuT, gpuT)
}

// Execute materializes the graph: submit the job (charging the usual
// submission overhead), run the placement pass over every declared
// group in declaration order, fuse chains unless disabled, then run
// the nodes sequentially on the calling driver process — the same
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
	for _, group := range st.groupOrder {
		st.place(group)
	}
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
// its span. Estimates are attached for Either nodes whose group has
// been decided (est vs. actual is the cost-model calibration signal).
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
	if n.group != "" {
		attrs = append(attrs, obs.Str("group", n.group))
		if d, ok := st.decisions[n.group]; ok {
			attrs = append(attrs, obs.Str("placed", d.String()))
		}
		if est, ok := st.ests[n.group]; ok {
			attrs = append(attrs,
				obs.Dur("est_cpu", est.cpu),
				obs.Dur("est_gpu", est.gpu))
		}
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
// chaining and placement machinery, and a superstep barrier closes
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

// EitherDo appends a driver-side Either node: the placement decision of
// group selects which body runs. Workloads whose CPU and GPU paths
// differ in driver structure (different source representations, staged
// buffers, block cleanup) express each path as one body and let the
// planner choose.
func EitherDo(gr *Graph, name, group string, cpu, gpu func(ctx *Ctx)) {
	gr.add(&node{
		kind:  kEither,
		name:  "either:" + name,
		group: group,
		run: func(ctx *Ctx, _ any) any {
			if ctx.Placement(group) == GPU {
				gpu(ctx)
			} else {
				cpu(ctx)
			}
			return nil
		},
	})
}
