// Package gflink is a Go reproduction of GFlink (Chen, Li, Ouyang,
// Zeng, Li — ICPP 2016 / IEEE TPDS 29(6), 2018): an in-memory computing
// architecture on heterogeneous CPU-GPU clusters for big data.
//
// The public surface re-exports the system's layers:
//
//   - the baseline Flink-like engine (cluster, jobs, DataSet operators),
//   - GFlink itself (GPUManagers, GDST blocks, GWork, the GPU cache and
//     the adaptive locality-aware stream scheduler),
//   - the GStruct schema system with AoS/SoA/AoP layouts,
//   - the streaming DataStream layer (bounded buffers, credit-based
//     backpressure, tumbling-window aggregation with CPU/GPU placement),
//   - the workload suite and the benchmark harness that regenerates
//     every table and figure of the paper's evaluation.
//
// Everything runs on a deterministic virtual clock: times reported by
// jobs are simulated seconds derived from explicit hardware cost models
// (see DESIGN.md), while all data transformations really execute, so
// results are checkable.
//
// Quick start:
//
//	g := gflink.New(gflink.Config{
//		Config:        gflink.ClusterConfig{Workers: 2, Model: costmodel.Default()},
//		GPUsPerWorker: 2,
//	})
//	g.Run(func() {
//		job := g.Cluster.NewJob("example")
//		// build GDSTs, submit GWork, run operators...
//		_ = job
//	})
//
// See examples/ for complete programs.
package gflink

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/obs"
	"gflink/internal/plan"
	"gflink/internal/stream"
)

// Core GFlink types.
type (
	// Config configures a GFlink deployment (cluster plus GPU-side
	// parameters).
	Config = core.Config
	// ClusterConfig configures the baseline engine.
	ClusterConfig = flink.Config
	// GFlink is a running deployment: the embedded cluster plus one
	// GPUManager per worker.
	GFlink = core.GFlink
	// GWork is the unit of GPU work (Section 3.5.3 of the paper).
	GWork = core.GWork
	// Input is one input buffer of a GWork with its cache directive.
	Input = core.Input
	// CacheKey identifies a cached block on a device.
	CacheKey = core.CacheKey
	// CachePolicy selects a cache region's eviction scheme.
	CachePolicy = core.CachePolicy
	// Block is a page of GStruct records in off-heap memory.
	Block = core.Block
	// GDST is a distributed dataset of blocks.
	GDST = core.GDST
	// GPUMapSpec configures a gpuMapPartition operator.
	GPUMapSpec = core.GPUMapSpec
	// Schema is a GStruct definition with C-compatible layout.
	Schema = gstruct.Schema
	// Field is one GStruct member.
	Field = gstruct.Field
	// GPUProfile describes a device generation.
	GPUProfile = costmodel.GPUProfile
	// StreamConfig configures a GStreamManager (used by advanced
	// embedders; deployments built with New wire it automatically).
	StreamConfig = core.StreamConfig
	// WorkReport is a completed GWork's execution report.
	WorkReport = obs.WorkReport
)

// Deployment constructors.
var (
	// New builds a homogeneous deployment.
	New = core.New
	// NewHetero builds a deployment with per-device GPU profiles.
	NewHetero = core.NewHetero
)

// GDST constructors and operators.
var (
	// NewGDST builds a GDST from a schema and a fill function.
	NewGDST = core.NewGDST
	// GPUMapPartition is the paper's gpuMapPartition operator.
	GPUMapPartition = core.GPUMapPartition
	// GPUReducePartition is the per-block GPU reducer.
	GPUReducePartition = core.GPUReducePartition
	// CollectBlocks gathers blocks to the driver.
	CollectBlocks = core.CollectBlocks
	// FreeBlocks releases a dead dataset's off-heap buffers.
	FreeBlocks = core.FreeBlocks
)

// Deferred dataflow plans (the JobGraph layer). The generic stream
// operators (plan.Source, plan.Map, plan.Either, ...) cannot be
// re-exported as values; import gflink/internal/plan directly for
// those, as the examples do.
type (
	// Plan is a deferred job graph: operators append nodes, Execute
	// materializes them through the chaining pass.
	Plan = plan.Graph
	// PlanOptions configure one graph's planning passes.
	PlanOptions = plan.Options
	// PlacementMode picks the body of every Either node: ForceCPU or
	// ForceGPU.
	PlacementMode = plan.Mode
)

// Plan constructors and driver-side nodes.
var (
	// NewPlan starts an empty deferred job graph.
	NewPlan = plan.NewGraph
	// PlanIterate appends a bulk-iteration node.
	PlanIterate = plan.Iterate
	// PlanDo appends a driver-side node.
	PlanDo = plan.Do
	// PlanEitherDo appends a driver-side CPU-or-GPU node.
	PlanEitherDo = plan.EitherDo
	// PlanGPUMap appends a deferred gpuMapPartition node.
	PlanGPUMap = plan.GPUMap
	// PlanGPUReduce appends a deferred gpuReducePartition node.
	PlanGPUReduce = plan.GPUReduce
)

// Placement modes.
const (
	ForceCPU = plan.ForceCPU
	ForceGPU = plan.ForceGPU
)

// Streaming DataStream layer: the unbounded counterpart to Plan. A
// Stream is a linear source→window→sink pipeline whose stages run as
// virtual-time processes connected by bounded, credit-backpressured
// edges; window aggregation lowers onto the GPU map/reduce path or a
// CPU slot by the pipeline's PlacementMode, the rule Plan uses
// (DESIGN.md "Streaming layer").
type (
	// Stream is a deferred streaming pipeline; NewStream starts one.
	Stream = stream.Pipeline
	// StreamOptions are a pipeline's resolved settings (shaped like
	// PlanOptions: construct through NewStream's functional options).
	StreamOptions = stream.Options
	// StreamOption mutates StreamOptions at construction.
	StreamOption = stream.Option
	// StreamStage is a stage handle returned by the stage builders.
	StreamStage = stream.Stage
	// StreamRecord is one streaming element (key + value).
	StreamRecord = stream.Record
	// StreamResult is one pipeline run's measurements.
	StreamResult = stream.Result
	// StreamSourceSpec configures a generator source stage.
	StreamSourceSpec = stream.SourceSpec
	// StreamWindowSpec configures a tumbling-window aggregation stage.
	StreamWindowSpec = stream.WindowSpec
)

// Stream constructors and functional options.
var (
	// NewStream starts an empty pipeline against a deployment, shaped
	// like NewPlan: nothing touches the virtual clock until Run.
	NewStream = stream.New
	// StreamWithMode sets window placement (ForceCPU, the default, or
	// ForceGPU).
	StreamWithMode = stream.WithMode
	// StreamWithBatchRecords sets the records per micro-batch.
	StreamWithBatchRecords = stream.WithBatchRecords
	// StreamWithBufferBatches sets the per-edge credit limit.
	StreamWithBufferBatches = stream.WithBufferBatches
)

// Cache-eviction policies for the per-job GPU cache region
// (Config.CachePolicy). FIFO and stop-when-full are the paper's two
// schemes (Section 4.2.2); LRU belongs to the tiered memory subsystem,
// which can also back evictions with a host paging tier and spill disk
// (Config.HostTierBytes; the disk is costmodel.DefaultSpillDisk).
const (
	EvictFIFO    = core.EvictFIFO
	StopWhenFull = core.StopWhenFull
	EvictLRU     = core.EvictLRU
)

// Observability: spans, metrics and trace export. Every deployment
// carries an Observability under GFlink.Obs; these aliases expose the
// layer without importing internal packages. All span timestamps come
// from the virtual clock, so traces are byte-identical across runs.
type (
	// Observability bundles a deployment's tracer and metrics registry.
	Observability = obs.Observability
	// Tracer records deterministic spans.
	Tracer = obs.Tracer
	// TraceSpan is one recorded span.
	TraceSpan = obs.Span
	// TraceAttr is one span attribute.
	TraceAttr = obs.Attr
	// TraceProcess groups one tracer's spans under a process name in a
	// Chrome trace export.
	TraceProcess = obs.TraceProcess
	// MetricsRegistry is a named-counter registry.
	MetricsRegistry = obs.Registry
	// Metric is one named counter value in a registry snapshot.
	Metric = obs.Metric
)

// Observability constructors and trace export.
var (
	// NewTracer builds a standalone span tracer.
	NewTracer = obs.NewTracer
	// NewMetrics builds a standalone metrics registry.
	NewMetrics = obs.NewRegistry
	// ChromeTrace serializes tracers as Chrome trace_event JSON.
	ChromeTrace = obs.ChromeTrace
	// WriteChromeTrace streams Chrome trace_event JSON to a writer.
	WriteChromeTrace = obs.WriteChromeTrace
	// ValidateChromeTrace checks trace bytes against the schema the
	// exporter promises.
	ValidateChromeTrace = obs.ValidateChromeTrace
)

// Explain renders a plan as text: the stage list after chaining with
// each Either node's device, and measured stage times once the plan has
// executed.
func Explain(p *Plan) string { return p.Explain() }

// GStruct schema helpers.
var (
	// NewSchema declares a GStruct (returns an error on invalid specs).
	NewSchema = gstruct.New
	// MustSchema is NewSchema panicking on error.
	MustSchema = gstruct.MustNew
)

// Layout constants (Section 2.1).
const (
	AoS = gstruct.AoS
	SoA = gstruct.SoA
	AoP = gstruct.AoP
)

// Device generations used in the paper's evaluation.
var (
	GTX750 = costmodel.GTX750
	C2050  = costmodel.C2050
	K20    = costmodel.K20
	P100   = costmodel.P100
)
