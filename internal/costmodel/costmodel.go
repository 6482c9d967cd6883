// Package costmodel defines the hardware timing models the GFlink
// simulator charges against its virtual clock.
//
// Every quantity the paper's evaluation depends on is an explicit,
// documented constant here: JVM per-record iterator overhead, effective
// scalar throughput of CPU task slots, GPU roofline parameters per
// device generation, PCIe DMA latency and peak bandwidth, disk and
// network bandwidth, and the fixed job-level overheads (submission,
// scheduling, per-superstep synchronization).
//
// The PCIe constants are calibrated against Table 2 of the paper
// (transfer-channel bandwidth versus transfer size): effective bandwidth
// = bytes / (setupLatency + bytes/peak) reproduces the measured ramp
// from ~0.8 GB/s at 2 KiB to ~3 GB/s at and beyond 256 KiB, and the
// extra JNI redirect cost reproduces GFlink's small-transfer deficit
// against the native path.
package costmodel

import "time"

// Work describes the resource demand of processing a batch of elements:
// floating-point operations plus bytes moved through the memory system.
// Costs are totals for the batch, not per element.
type Work struct {
	Flops        float64
	BytesRead    float64
	BytesWritten float64
}

// Add returns the component-wise sum of two work descriptors.
func (w Work) Add(o Work) Work {
	return Work{
		Flops:        w.Flops + o.Flops,
		BytesRead:    w.BytesRead + o.BytesRead,
		BytesWritten: w.BytesWritten + o.BytesWritten,
	}
}

// Scale returns the work multiplied by k, used to convert per-element
// demand into batch demand at nominal scale.
func (w Work) Scale(k float64) Work {
	return Work{Flops: w.Flops * k, BytesRead: w.BytesRead * k, BytesWritten: w.BytesWritten * k}
}

// Bytes returns total bytes moved.
func (w Work) Bytes() float64 { return w.BytesRead + w.BytesWritten }

// seconds converts a positive duration in seconds to time.Duration,
// rounding to nanoseconds.
func seconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// CPU models one worker node's processor as seen by JVM task slots.
// The defaults describe the paper's testbed: an Intel Core i5-4590
// (4 cores, 3.3 GHz) running Flink operators through the
// one-element-at-a-time iterator model.
type CPU struct {
	// Cores is the number of physical cores (== default task slots).
	Cores int
	// EffectiveGFLOPS is the sustained per-core throughput of JVM scalar
	// operator code, far below peak because of bounds checks, virtual
	// dispatch and lack of vectorization.
	EffectiveGFLOPS float64
	// MemBandwidthGBps is the per-socket memory bandwidth shared by all
	// cores.
	MemBandwidthGBps float64
	// RecordOverhead is the fixed per-record cost of the Flink iterator
	// execution model: iterator advance, virtual calls, tuple access.
	RecordOverhead time.Duration
	// SerDePerByte is the cost per byte of serializing or deserializing
	// JVM objects (used on shuffle paths and in the naive JVM-to-GPU
	// communication ablation).
	SerDePerByte time.Duration
	// HeapCopyGBps is the bandwidth of copying between JVM heap and
	// native memory (the step GFlink's off-heap layout eliminates).
	HeapCopyGBps float64
}

// DefaultCPU is the testbed CPU model (i5-4590).
var DefaultCPU = CPU{
	Cores:            4,
	EffectiveGFLOPS:  1.2,
	MemBandwidthGBps: 25.6,
	RecordOverhead:   60 * time.Nanosecond,
	SerDePerByte:     time.Nanosecond,
	HeapCopyGBps:     4.0,
}

// SlotTime returns the time one task slot (one core) needs to process
// records of total demand w through the iterator model.
func (c CPU) SlotTime(records int64, w Work) time.Duration {
	compute := w.Flops / (c.EffectiveGFLOPS * 1e9)
	mem := w.Bytes() / (c.MemBandwidthGBps * 1e9)
	t := compute
	if mem > t {
		t = mem
	}
	return seconds(t) + time.Duration(records)*c.RecordOverhead
}

// SerDe returns the serialization (or deserialization) time for n bytes.
func (c CPU) SerDe(n int64) time.Duration {
	return time.Duration(n) * c.SerDePerByte
}

// HeapCopy returns the time to copy n bytes between JVM heap and native
// memory.
func (c CPU) HeapCopy(n int64) time.Duration {
	return seconds(float64(n) / (c.HeapCopyGBps * 1e9))
}

// GPUProfile is the roofline description of one GPU generation.
type GPUProfile struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// SPGFLOPS is peak single-precision throughput.
	SPGFLOPS float64
	// MemBWGBps is peak device-memory bandwidth.
	MemBWGBps float64
	// MemBytes is device-memory capacity.
	MemBytes int64
	// CopyEngines is 1 (half-duplex PCIe) or 2 (full-duplex).
	CopyEngines int
	// Efficiency is the fraction of peak a well-written data-parallel
	// kernel sustains.
	Efficiency float64
	// LaunchOverhead is the fixed cost of one kernel launch.
	LaunchOverhead time.Duration
}

// The device generations used in the paper's evaluation (Section 6.1).
var (
	GTX750 = GPUProfile{Name: "GTX750", SMs: 4, SPGFLOPS: 1100, MemBWGBps: 80, MemBytes: 2 << 30, CopyEngines: 1, Efficiency: 0.25, LaunchOverhead: 8 * time.Microsecond}
	C2050  = GPUProfile{Name: "C2050", SMs: 14, SPGFLOPS: 1030, MemBWGBps: 144, MemBytes: 3 << 30, CopyEngines: 1, Efficiency: 0.25, LaunchOverhead: 8 * time.Microsecond}
	K20    = GPUProfile{Name: "K20", SMs: 13, SPGFLOPS: 3520, MemBWGBps: 208, MemBytes: 5 << 30, CopyEngines: 2, Efficiency: 0.25, LaunchOverhead: 7 * time.Microsecond}
	P100   = GPUProfile{Name: "P100", SMs: 56, SPGFLOPS: 9300, MemBWGBps: 732, MemBytes: 16 << 30, CopyEngines: 2, Efficiency: 0.28, LaunchOverhead: 6 * time.Microsecond}
)

// KernelTime returns the execution time of a kernel with demand w whose
// global-memory accesses achieve the given coalescing factor in (0,1]:
// 1.0 for fully coalesced (SoA/AoP column access), lower for strided AoS
// access. The model is the standard roofline:
// max(compute-bound, memory-bound) plus launch overhead.
func (p GPUProfile) KernelTime(w Work, coalesce float64) time.Duration {
	if coalesce <= 0 || coalesce > 1 {
		coalesce = 1
	}
	compute := w.Flops / (p.SPGFLOPS * 1e9 * p.Efficiency)
	mem := w.Bytes() / (p.MemBWGBps * 1e9 * coalesce)
	t := compute
	if mem > t {
		t = mem
	}
	return p.LaunchOverhead + seconds(t)
}

// PCIe models the host-to-device interconnect shared by the GPUs of one
// node.
type PCIe struct {
	// SetupLatency is the fixed DMA initiation cost per transfer.
	SetupLatency time.Duration
	// PeakGBps is the sustained large-transfer bandwidth.
	PeakGBps float64
	// JNIRedirect is the extra cost of routing one transfer request
	// through the CUDAWrapper -> CUDAStub control channel (GFlink path
	// only; the native baseline calls the driver directly).
	JNIRedirect time.Duration
}

// DefaultPCIe matches Table 2 of the paper (PCIe Gen2-era testbed with a
// ~3 GB/s sustained rate).
var DefaultPCIe = PCIe{
	SetupLatency: 1800 * time.Nanosecond,
	PeakGBps:     3.0,
	JNIRedirect:  300 * time.Nanosecond,
}

// TransferTime returns the duration of one DMA of n bytes, excluding any
// control-channel redirect cost.
func (p PCIe) TransferTime(n int64) time.Duration {
	return p.SetupLatency + seconds(float64(n)/(p.PeakGBps*1e9))
}

// GFlinkTransferTime is TransferTime plus the JNI redirect of the
// CUDAWrapper/CUDAStub control channel.
func (p PCIe) GFlinkTransferTime(n int64) time.Duration {
	return p.JNIRedirect + p.TransferTime(n)
}

// Disk models a node-local spinning disk used by HDFS DataNodes.
type Disk struct {
	ReadMBps  float64
	WriteMBps float64
	Seek      time.Duration
}

// DefaultDisk is a 7200 rpm SATA disk.
var DefaultDisk = Disk{ReadMBps: 150, WriteMBps: 120, Seek: 8 * time.Millisecond}

// DefaultSpillDisk is the node-local scratch SSD the tiered memory
// subsystem spills host pages to when the host tier overflows: much
// faster than the HDFS-era DefaultDisk, still an order of magnitude
// under PCIe.
var DefaultSpillDisk = Disk{ReadMBps: 500, WriteMBps: 450, Seek: 100 * time.Microsecond}

// ReadTime returns the time to stream-read n bytes.
func (d Disk) ReadTime(n int64) time.Duration {
	return d.Seek + seconds(float64(n)/(d.ReadMBps*1e6))
}

// WriteTime returns the time to stream-write n bytes.
func (d Disk) WriteTime(n int64) time.Duration {
	return d.Seek + seconds(float64(n)/(d.WriteMBps*1e6))
}

// Net models the cluster interconnect (per-node full-duplex links).
type Net struct {
	BandwidthGbps float64
	Latency       time.Duration
}

// DefaultNet is gigabit Ethernet.
var DefaultNet = Net{BandwidthGbps: 1.0, Latency: 100 * time.Microsecond}

// TransferTime returns the time for one n-byte point-to-point transfer
// at full link rate.
func (n Net) TransferTime(bytes int64) time.Duration {
	return n.Latency + seconds(float64(bytes)/(n.BandwidthGbps*1e9/8))
}

// StreamCreditBytes is the wire size of one credit-grant control
// message in the stream layer's backpressure protocol: a channel id,
// a sequence number and a credit count. Small enough that a grant is
// latency-bound on the cluster network.
const StreamCreditBytes = 64

// Overheads are the fixed framework costs of a Flink job.
type Overheads struct {
	// JobSubmit is client -> JobManager submission plus plan
	// translation.
	JobSubmit time.Duration
	// TaskDeploy is the JobManager -> TaskManager cost of deploying one
	// task.
	TaskDeploy time.Duration
	// SuperstepSync is the driver-side synchronization barrier between
	// bulk iterations.
	SuperstepSync time.Duration
	// JNICall is one control-channel round trip (CUDAWrapper ->
	// CUDAStub -> driver API).
	JNICall time.Duration
	// PinPage is the cost of cudaHostRegister for one memory page.
	PinPage time.Duration
}

// DefaultOverheads matches Flink 1.3-era behaviour on a small cluster.
var DefaultOverheads = Overheads{
	JobSubmit:     1500 * time.Millisecond,
	TaskDeploy:    2 * time.Millisecond,
	SuperstepSync: 120 * time.Millisecond,
	JNICall:       400 * time.Nanosecond,
	PinPage:       1 * time.Microsecond,
}

// Model bundles every hardware model of one simulated cluster so the
// runtime can thread a single value through.
type Model struct {
	CPU       CPU
	PCIe      PCIe
	Disk      Disk
	Net       Net
	Overheads Overheads
}

// Default is the paper-testbed model.
func Default() Model {
	return Model{
		CPU:       DefaultCPU,
		PCIe:      DefaultPCIe,
		Disk:      DefaultDisk,
		Net:       DefaultNet,
		Overheads: DefaultOverheads,
	}
}

// CoalesceFactor maps a data layout to the fraction of peak device
// memory bandwidth its access pattern achieves (Section 2.1's AoS / SoA
// / AoP discussion).
func CoalesceFactor(layout string) float64 {
	switch layout {
	case "SoA", "AoP":
		return 1.0
	case "AoS":
		return 0.45
	default:
		return 0.45
	}
}
