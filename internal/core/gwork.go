// Package core implements GFlink itself — the paper's contribution —
// on top of the baseline engine in package flink:
//
//   - GWork (Section 3.5.3): the unit of GPU work programmers assemble
//     in GPU-based Mappers and Reducers — kernel entry name, ptx path,
//     input/output HBuffers, launch geometry and cache directives.
//   - CUDAWrapper / CUDAStub (Section 4.1): the control channel (JNI
//     calls wrapping the CUDA driver API) and the transfer channel
//     (direct off-heap buffer DMA, page-locking, async copies).
//   - GMemoryManager (Section 4.2): automatic device-memory management
//     plus the per-job GPU cache — a hash table keyed by partition and
//     block IDs with FIFO eviction, or the alternative
//     stop-caching-when-full policy.
//   - GStreamManager (Section 5): the producer-consumer execution model
//     where TaskManager tasks produce GWork and CUDA streams consume it
//     through the three-stage H2D/kernel/D2H pipeline, scheduled by the
//     adaptive locality-aware algorithm (Algorithm 5.1) with
//     locality-aware work stealing (Algorithm 5.2).
//   - GDST (Section 3.5.1): GStruct-backed block datasets and the
//     gpuMapPartition / gpuReducePartition operators.
package core

import (
	"time"

	"gflink/internal/gpu"
	"gflink/internal/gstruct"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// CacheKey identifies a cached block in a device's cache region. "By
// default, the key of a block is the partition ID and the block ID"
// (Section 4.2.2); JobID scopes regions per job. Cols qualifies the
// entry with the column projection it holds: the zero value means "all
// columns" (the pre-projection behaviour), so a projected entry never
// aliases a full one and the cache can serve both side by side.
type CacheKey struct {
	JobID     int
	Partition int
	Block     int
	Cols      gstruct.ColSet
}

// Input is one input HBuffer of a GWork, with its nominal transfer size
// and cache directive.
type Input struct {
	Buf     *membuf.HBuffer
	Nominal int64
	Cache   bool
	Key     CacheKey
	// Ranges, when non-nil, restricts the real H2D copy to these byte
	// ranges of Buf (at their original offsets, so device-side column
	// addressing is unchanged) — the column-projection transfer. Nominal
	// must then already be the projected volume. nil ships the whole
	// buffer.
	Ranges []gpu.CopyRange
}

// GWork is the abstraction model for GPU computing (Section 3.5.3):
// programmers set the buffers, the ptx path and kernel entry name, the
// launch geometry and the cache flags, then submit it to the
// GStreamManager.
type GWork struct {
	// PtxPath and ExecuteName locate the kernel (the registry in
	// package gpu stands in for loaded ptx modules).
	PtxPath     string
	ExecuteName string
	// Size is the real element count; Nominal the paper-scale count
	// used for cost accounting.
	Size    int
	Nominal int64
	// BlockSize and GridSize mirror the CUDA launch configuration.
	BlockSize, GridSize int
	// In are the input buffers; Out receives the result.
	In         []Input
	Out        *membuf.HBuffer
	OutNominal int64
	// Args carries scalar kernel arguments.
	Args []int64
	// Coalesce is the memory-coalescing factor of the kernel's access
	// pattern (derived from the GStruct layout); 0 means fully
	// coalesced.
	Coalesce float64
	// JobID scopes the cache region.
	JobID int

	done   *vclock.Event
	err    error
	device *gpu.Device
	// scheduler bookkeeping: submission time and steal origin (set by
	// Submit / steal), folded into report by the stream worker.
	submitT    time.Duration
	stolenFrom int
	report     obs.WorkReport
}

// Wait blocks until the work completes and returns its error.
func (w *GWork) Wait() error {
	w.done.Wait()
	return w.err
}

// WaitTask is Wait for a vclock task. It returns true and the work's
// error once the work is complete. It returns false when t was parked
// on the work's completion: the step must return, and call WaitTask
// again when it runs next.
func (w *GWork) WaitTask(t *vclock.Task) (bool, error) {
	if !w.done.WaitTask(t) {
		return false, nil
	}
	return true, w.err
}

// Device returns the GPU that executed the work (after Wait).
func (w *GWork) Device() *gpu.Device { return w.device }

// Report returns the execution report (after Wait): queue wait, the
// three pipeline stage durations, cache hit/miss counts, and where the
// work ran — everything the old Timings/CacheHits accessors exposed,
// as one named struct the observability layer consumes directly.
func (w *GWork) Report() obs.WorkReport { return w.report }

// totalCachedBytes sums the nominal sizes of the cache-flagged inputs.
func (w *GWork) totalCachedBytes() int64 {
	var n int64
	for _, in := range w.In {
		if in.Cache {
			n += in.Nominal
		}
	}
	return n
}
