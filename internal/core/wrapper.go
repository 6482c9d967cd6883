package core

import (
	"time"

	"gflink/internal/costmodel"
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

// cudaCall names a CUDA entry point the wrapper redirects through the
// CUDAStub, for the charge it pays on top of its action.
type cudaCall uint8

const (
	// Control-channel calls: one JNI round trip each.
	callMalloc cudaCall = iota
	callFree
	callHostRegister
	callLaunch
	callStreamSynchronize
	// Transfer-channel calls: the JNI redirect, on top of the DMA.
	callMemcpyH2D
	callMemcpyD2H
)

// charge returns what entry point c costs before its action runs. A
// stream worker's step sleeps it through its task and then runs the
// action itself.
func (w *CUDAWrapper) charge(c cudaCall) time.Duration {
	if c >= callMemcpyH2D {
		return w.model.PCIe.JNIRedirect
	}
	return w.model.Overheads.JNICall
}
