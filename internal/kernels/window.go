package kernels

import (
	"encoding/binary"
	"fmt"
	"math"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
)

// WindowAggKernel sums float32 values into per-key slots — the GPU body
// of the stream layer's tumbling-window keyed aggregation. The stream
// layer pre-hashes keys to slot indices on the host, so the kernel is a
// pure scatter-add over a dense table and the CPU reference can replay
// the exact same float additions in the exact same order (results are
// bit-comparable across placements).
//
// Buffers:
//
//	In[0]  — packed records: (slot uint32, value float32) pairs
//	Out[0] — sums, float32[slots]; the kernel accumulates, so callers
//	         zero the buffer between windows
//	Args   — [slots]
const WindowAggKernel = "gflink.windowAgg"

// WindowAggWork returns the demand of aggregating records window rows:
// one hash-free scatter-add per record over the packed 8-byte pairs.
func WindowAggWork(records int64) costmodel.Work {
	return costmodel.Work{
		Flops:        2 * float64(records),
		BytesRead:    8 * float64(records),
		BytesWritten: 4 * float64(records),
	}
}

func init() {
	gpu.Register(WindowAggKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 1 || len(ctx.Out) < 1 || len(ctx.Args) < 1 {
			return fmt.Errorf("windowAgg: want 1 input, 1 output, 1 arg")
		}
		slots := int(ctx.Args[0])
		if slots <= 0 {
			return fmt.Errorf("windowAgg: non-positive slot count %d", slots)
		}
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		if len(out) < 4*slots {
			return fmt.Errorf("windowAgg: output holds %d bytes, %d slots need %d", len(out), slots, 4*slots)
		}
		// ctx.N is the real record count; each record is 8 packed bytes.
		n := min(max(ctx.N, 0), len(in)/8)
		// Each pair is one little-endian uint64: slot in the low half,
		// the value's float32 bits in the high half.
		in = in[:8*n]
		for i := 0; i < len(in); i += 8 {
			p := binary.LittleEndian.Uint64(in[i:])
			// The stream layer packs slots already reduced, so the
			// exact % only runs for out-of-range input.
			slot := int(uint32(p))
			if slot >= slots {
				slot %= slots
			}
			putF32(out, slot, f32(out, slot)+math.Float32frombits(uint32(p>>32)))
		}
		ctx.Charge(WindowAggWork(ctx.Nominal))
		return nil
	})
}

// CPUWindowAgg is the reference aggregation over the same packed (slot,
// value) pairs, accumulating into sums in record order — bit-identical
// to the kernel.
func CPUWindowAgg(in []byte, records, slots int, sums []float32) {
	if max := len(in) / 8; records > max {
		records = max
	}
	for i := 0; i < records; i++ {
		slot := int(u32(in, 2*i)) % slots
		sums[slot] += f32(in, 2*i+1)
	}
}
