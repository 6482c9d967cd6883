// Package gpu implements the virtual GPU devices GFlink schedules work
// onto. A Device mirrors the CUDA execution model the paper relies on:
//
//   - a device-memory allocator with explicit capacity (cudaMalloc /
//     cudaFree),
//   - one or two DMA copy engines over a shared PCIe link (half- vs
//     full-duplex, Section 4.1.2),
//   - asynchronous Streams — FIFO command queues whose operations from
//     different streams overlap (Section 5),
//   - kernels: registered Go functions that really execute over the raw
//     device-buffer bytes (so results are bit-checkable against CPU
//     references) and report their resource demand, which is charged on
//     the virtual clock through the roofline model in costmodel.
//
// Device buffers distinguish the *nominal* size (what the paper-scale
// dataset would occupy, used for capacity accounting and timing) from
// the *real* backing bytes (the scaled-down data actually computed on).
package gpu

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// MallocOverhead is the fixed driver cost of one device allocation.
const MallocOverhead = 10 * time.Microsecond

// Device is one virtual GPU.
type Device struct {
	ID      int
	Node    int
	Profile costmodel.GPUProfile

	clock   *vclock.Clock
	pcie    costmodel.PCIe
	compute *vclock.Semaphore
	h2d     *vclock.Semaphore
	d2h     *vclock.Semaphore

	usedBytes int64 // nominal
	nextBuf   int64
	streams   []*Stream
	closed    bool
	// freeBufs recycles Buffer shells (and their real backing arrays)
	// across Malloc/Free cycles, so the per-GWork transient allocations
	// of the three-stage pipeline are allocation-free at steady state.
	// Capacity accounting above is untouched: a recycled buffer was
	// subtracted from usedBytes at Free and re-added at Malloc.
	freeBufs []*Buffer

	// Counters for tests and EXPERIMENTS.md.
	kernels   int64
	h2dBytes  int64
	d2hBytes  int64
	h2dCopies int64
	d2hCopies int64
}

// NewDevice creates a device with the given profile on a node's PCIe
// link. With one copy engine the same DMA unit serves both directions
// (half duplex); with two, H2D and D2H can overlap.
func NewDevice(clock *vclock.Clock, id, node int, profile costmodel.GPUProfile, pcie costmodel.PCIe) *Device {
	d := &Device{
		ID:      id,
		Node:    node,
		Profile: profile,
		clock:   clock,
		pcie:    pcie,
		compute: vclock.NewSemaphore(clock, fmt.Sprintf("gpu%d-compute", id), 1),
	}
	h2d := vclock.NewSemaphore(clock, fmt.Sprintf("gpu%d-dma0", id), 1)
	d.h2d = h2d
	if profile.CopyEngines >= 2 {
		d.d2h = vclock.NewSemaphore(clock, fmt.Sprintf("gpu%d-dma1", id), 1)
	} else {
		d.d2h = h2d
	}
	return d
}

// Buffer is a device-memory allocation.
type Buffer struct {
	dev     *Device
	id      int64
	nominal int64
	data    []byte
	freed   bool
	// detached: Detach released the nominal bytes; the holder keeps
	// the buffer and its real bytes.
	detached bool
}

// Bytes returns the real backing storage kernels compute on.
func (b *Buffer) Bytes() []byte { return b.data }

// Device returns the owning device.
func (b *Buffer) Device() *Device { return b.dev }

// Malloc allocates nominal bytes of device memory backed by real bytes
// of host storage. It fails when device memory is exhausted. Buffer
// shells and backing arrays are recycled from freed buffers, so a
// steady-state Malloc/Free cycle does not touch the host heap. Malloc
// is MallocReserve, the MallocOverhead driver cost, then MallocFill.
func (d *Device) Malloc(nominal int64, real int) (*Buffer, error) {
	b, err := d.MallocReserve(nominal, real)
	if err != nil {
		return nil, err
	}
	d.clock.Sleep(MallocOverhead)
	d.MallocFill(b, real)
	return b, nil
}

// MallocReserve is the first half of Malloc: it checks the request,
// accounts its nominal bytes (visible to every other process from here
// on) and takes a buffer shell with its id. The caller charges
// MallocOverhead and then backs the shell with MallocFill; the shell is
// not a usable buffer before that.
func (d *Device) MallocReserve(nominal int64, real int) (*Buffer, error) {
	if nominal <= 0 || real < 0 {
		return nil, fmt.Errorf("gpu: malloc nominal=%d real=%d", nominal, real)
	}
	if err := d.reserve(nominal); err != nil {
		return nil, err
	}
	var b *Buffer
	if n := len(d.freeBufs); n > 0 {
		b = d.freeBufs[n-1]
		d.freeBufs[n-1] = nil
		d.freeBufs = d.freeBufs[:n-1]
	} else {
		b = &Buffer{}
	}
	b.dev, b.id, b.nominal = d, d.nextBuf, nominal
	return b, nil
}

// MallocFill is the second half of Malloc: it backs a reserved shell
// with real zeroed bytes, reusing the shell's recycled backing when it
// is large enough.
func (d *Device) MallocFill(b *Buffer, real int) {
	if cap(b.data) < real {
		// Backing growth to the largest transfer seen on this device.
		b.data = make([]byte, real)
	} else {
		// Reuse the recycled backing, zeroed to match a fresh cudaMalloc'd
		// mirror exactly (results must be byte-identical to the
		// allocate-fresh path).
		b.data = b.data[:real]
		clear(b.data)
	}
	b.freed = false
}

// reserve checks that nominal more bytes fit, accounts them and draws
// the next buffer id.
func (d *Device) reserve(nominal int64) error {
	if d.usedBytes+nominal > d.Profile.MemBytes {
		return fmt.Errorf("gpu%d: out of device memory: need %d, free %d", d.ID, nominal, d.Profile.MemBytes-d.usedBytes)
	}
	d.usedBytes += nominal
	d.nextBuf++
	return nil
}

// Free releases the buffer into the device's recycle list. A detached
// buffer's nominal bytes were already released by Detach. Double frees
// panic.
func (d *Device) Free(b *Buffer) {
	if b.dev != d {
		panic("gpu: Free on wrong device")
	}
	if b.freed {
		panic("gpu: double free of device buffer")
	}
	if !b.detached {
		d.usedBytes -= b.nominal
	}
	b.freed, b.detached = true, false
	d.freeBufs = append(d.freeBufs, b)
}

// Detach releases a live buffer's nominal device bytes, as Free does,
// but keeps it and its real bytes off the free list: the caller holds
// them until it Reattaches or Frees the buffer.
func (d *Device) Detach(b *Buffer) {
	if b.dev != d || b.freed || b.detached {
		panic("gpu: Detach of a buffer that is not live on this device")
	}
	b.detached = true
	d.usedBytes -= b.nominal
}

// Reattach re-admits a detached buffer, real bytes unchanged, with
// MallocReserve's capacity check and accounting and a fresh id; the
// caller charges MallocOverhead. It fails, leaving b detached, when
// device memory is exhausted, and panics unless b is detached.
func (d *Device) Reattach(b *Buffer) error {
	if b.dev != d || !b.detached {
		panic("gpu: Reattach of a buffer that is not detached from this device")
	}
	if err := d.reserve(b.nominal); err != nil {
		return err
	}
	b.id, b.detached = d.nextBuf, false
	return nil
}

// UsedBytes reports allocated nominal device memory.
func (d *Device) UsedBytes() int64 { return d.usedBytes }

// FreeBytes reports remaining nominal device memory.
func (d *Device) FreeBytes() int64 { return d.Profile.MemBytes - d.usedBytes }

func (d *Device) count(ops, bytes *int64, n int64) {
	*ops++
	*bytes += n
}

// KernelCtx is what a kernel invocation sees: device buffers, launch
// geometry, scalar arguments, and the element counts. Kernels must call
// Charge to report their resource demand; the device converts it to
// virtual time through the roofline model.
type KernelCtx struct {
	// In and Out are the device buffers bound to the launch.
	In  []*Buffer
	Out []*Buffer
	// N is the real element count to compute on; Nominal is the
	// paper-scale element count used for cost accounting.
	N       int
	Nominal int64
	// GridSize and BlockSize mirror the CUDA launch configuration.
	GridSize, BlockSize int
	// Args carries scalar kernel arguments.
	Args []int64

	work     costmodel.Work
	coalesce float64
}

// Charge accumulates resource demand (totals at nominal scale).
func (k *KernelCtx) Charge(w costmodel.Work) { k.work = k.work.Add(w) }

// SetCoalesce declares the global-memory coalescing factor the kernel's
// access pattern achieves (see costmodel.CoalesceFactor).
func (k *KernelCtx) SetCoalesce(f float64) { k.coalesce = f }

// Func is a device kernel: it computes for real over ctx's buffers and
// reports cost via Charge.
type Func func(ctx *KernelCtx) error

// registry maps kernel names (the paper's ptx entry names) to
// implementations. It is filled from init functions only, so every
// lookup after init is a read of a map nothing writes to, and sweep
// points running on separate goroutines need no lock to share it.
var registry = make(map[string]Func)

// Register installs a kernel under name, replacing any previous
// registration (mirrors loading a ptx module). Call it only from an
// init function.
func Register(name string, fn Func) {
	registry[name] = fn
}

// Lookup resolves a kernel by name.
func Lookup(name string) (Func, bool) {
	fn, ok := registry[name]
	return fn, ok
}

// lookupKernel resolves a kernel by name, failing for an unregistered
// one.
func lookupKernel(name string) (Func, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("gpu: kernel %q not registered", name)
	}
	return fn, nil
}

// Launch executes the named kernel synchronously on the calling
// process: it waits for the device's compute engine, really runs the
// kernel function, charges the reported cost, releases the engine and
// only then counts the kernel. It returns the virtual duration of the
// kernel (excluding queueing). A stream's executor makes the same calls
// in the same order through its task.
func (d *Device) Launch(name string, ctx *KernelCtx) (time.Duration, error) {
	fn, err := lookupKernel(name)
	if err != nil {
		return 0, err
	}
	d.compute.Acquire(1)
	dur, err := d.runKernel(name, fn, ctx)
	if err == nil {
		d.clock.Sleep(dur)
	}
	d.compute.Release(1)
	if err != nil {
		return 0, err
	}
	d.kernels++
	return dur, nil
}

// runKernel runs kernel fn over ctx while its caller holds the compute
// engine and returns the kernel's modelled duration.
func (d *Device) runKernel(name string, fn Func, ctx *KernelCtx) (time.Duration, error) {
	// Kernel bodies are user code; the launch machinery itself is allocation-free.
	if err := fn(ctx); err != nil {
		return 0, fmt.Errorf("gpu: kernel %q: %w", name, err)
	}
	coalesce := ctx.coalesce
	if coalesce == 0 {
		coalesce = 1
	}
	return d.Profile.KernelTime(ctx.work, coalesce), nil
}

// Stats is a snapshot of device activity counters.
type Stats struct {
	Kernels              int64
	H2DCopies, D2HCopies int64
	H2DBytes, D2HBytes   int64
}

// Stats returns the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Kernels:   d.kernels,
		H2DCopies: d.h2dCopies,
		D2HCopies: d.d2hCopies,
		H2DBytes:  d.h2dBytes,
		D2HBytes:  d.d2hBytes,
	}
}

// Close shuts down every stream created on the device. After Close the
// device accepts no stream operations; it must be called before the
// simulation ends so stream executor tasks terminate.
func (d *Device) Close() {
	streams := d.streams
	d.streams = nil
	d.closed = true
	for _, s := range streams {
		s.close()
	}
}
