package core

import (
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

// CUDAWrapper is the Java-side half of GFlink's communication layer
// (Section 4.1): it exposes the CUDA driver and runtime APIs to the
// engine, redirecting every call through the CUDAStub (the C++ half)
// over JNI. Control-channel calls (malloc, free, launch, stream
// management) cost one JNI round trip each; transfer-channel calls add
// the JNI redirect on top of the DMA itself — the overhead visible in
// Table 2's small-transfer rows.
//
// The wrapper is also where the off-heap design pays off: HBuffers are
// direct buffers, so their virtual addresses are handed straight to the
// DMA engine with no JVM-heap-to-native copy and no
// serialization/deserialization (the buffer bytes already match the
// CUDA struct layout by construction of gstruct).
type CUDAWrapper struct {
	clock *vclock.Clock
	model costmodel.Model
}

// NewCUDAWrapper builds the wrapper for one worker node.
func NewCUDAWrapper(clock *vclock.Clock, model costmodel.Model) *CUDAWrapper {
	return &CUDAWrapper{clock: clock, model: model}
}

// jni charges one control-channel round trip.
func (w *CUDAWrapper) jni() { w.clock.Sleep(w.model.Overheads.JNICall) }

// redirect charges the transfer-channel JNI redirect.
func (w *CUDAWrapper) redirect() { w.clock.Sleep(w.model.PCIe.JNIRedirect) }

// Malloc allocates device memory (cudaMalloc through JNI).
func (w *CUDAWrapper) Malloc(d *gpu.Device, nominal int64, real int) (*gpu.Buffer, error) {
	w.jni()
	return d.Malloc(nominal, real)
}

// Free releases device memory (cudaFree through JNI).
func (w *CUDAWrapper) Free(d *gpu.Device, b *gpu.Buffer) {
	w.jni()
	d.Free(b)
}

// HostRegister page-locks a direct buffer (cudaHostRegister). The pin
// is released by the buffer's owner: Free unpins implicitly, so the
// registration lives exactly as long as the buffer.
func (w *CUDAWrapper) HostRegister(b *membuf.HBuffer) {
	w.jni()
	//gflink:owns-buffer -- caller keeps ownership; Free() unpins
	b.Pin()
}

// MemcpyH2D is the synchronous transfer-channel host-to-device copy
// (cudaMemcpyH2D): JNI redirect plus DMA.
func (w *CUDAWrapper) MemcpyH2D(d *gpu.Device, dst *gpu.Buffer, src *membuf.HBuffer, nominal int64) {
	w.redirect()
	d.MemcpyH2D(dst, src, nominal, w.model.CPU)
}

// MemcpyD2H is the synchronous device-to-host copy.
func (w *CUDAWrapper) MemcpyD2H(d *gpu.Device, dst *membuf.HBuffer, src *gpu.Buffer, nominal int64) {
	w.redirect()
	d.MemcpyD2H(dst, src, nominal, w.model.CPU)
}

// MemcpyH2DAsync enqueues an asynchronous copy on a stream
// (cudaMemcpyH2DAsync); the source must be page-locked.
func (w *CUDAWrapper) MemcpyH2DAsync(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer, nominal int64) {
	w.redirect()
	s.H2DAsync(dst, src, nominal)
}

// MemcpyD2HAsync enqueues an asynchronous device-to-host copy.
func (w *CUDAWrapper) MemcpyD2HAsync(s *gpu.Stream, dst *membuf.HBuffer, src *gpu.Buffer, nominal int64) {
	w.redirect()
	s.D2HAsync(dst, src, nominal)
}

// MemcpyH2DRangesAsync enqueues an asynchronous projected host-to-device
// copy: only the given real byte ranges move, charged at nominal bytes
// (the column-projection transfer). One JNI redirect per call, like any
// other transfer-channel entry point.
func (w *CUDAWrapper) MemcpyH2DRangesAsync(s *gpu.Stream, dst *gpu.Buffer, src *membuf.HBuffer, ranges []gpu.CopyRange, nominal int64) {
	w.redirect()
	s.H2DRangesAsync(dst, src, ranges, nominal)
}

// LaunchAsync enqueues a kernel launch on a stream.
func (w *CUDAWrapper) LaunchAsync(s *gpu.Stream, name string, ctx *gpu.KernelCtx) *gpu.Future {
	w.jni()
	return s.LaunchAsync(name, ctx)
}

// LaunchAsyncInto enqueues a kernel launch that completes through a
// caller-owned reusable future (see gpu.Stream.LaunchAsyncInto), so a
// stream worker that waits on each launch before the next one launches
// kernels without allocating.
func (w *CUDAWrapper) LaunchAsyncInto(s *gpu.Stream, f *gpu.Future, name string, ctx *gpu.KernelCtx) {
	w.jni()
	s.LaunchAsyncInto(f, name, ctx)
}

// StreamSynchronize waits for a stream to drain
// (cudaStreamSynchronize).
func (w *CUDAWrapper) StreamSynchronize(s *gpu.Stream) {
	w.jni()
	s.Synchronize()
}
