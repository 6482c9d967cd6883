package stream_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"gflink/internal/plan"
	"gflink/internal/stream"
)

// TestStreamStagesAllocateNothingPerBatch pins the per-batch cost of
// each stage kind at zero heap allocations, tracing off (DESIGN.md
// invariant 10): a run four times as long allocates exactly as much as
// a short one. Each shape is counted from Run alone, with the collector
// off, inside one deployment after a warm-up run, and each length is
// run three times and its fewest allocations kept: the count is of the
// whole process, so an allocation by another goroutine (under the race
// detector, now and then) only ever adds to one run. The source→sink
// shape covers the source, the sink and the credit courier with no
// window; the two window shapes add a window placed on the CPU and on
// the GPU.
func TestStreamStagesAllocateNothingPerBatch(t *testing.T) {
	const width, windows = 1024, 25 // four 256-record batches per window
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		mode   plan.Mode
		window bool
	}{
		{"source-sink", plan.ForceCPU, false},
		{"window-cpu", plan.ForceCPU, true},
		{"window-gpu", plan.ForceGPU, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(2)
			g.Obs.Tracer().SetEnabled(false)
			var short, long int64
			g.Run(func() {
				mallocs := func(w int64) int64 {
					p := stream.New(g, "budget", stream.WithMode(tc.mode))
					src := p.Source("gen", 0, stream.SourceSpec{Records: w * width, Seed: 7})
					if tc.window {
						src = src.Window("agg", 1, stream.WindowSpec{Records: width, Slots: 256})
					}
					src.Sink("out", 0)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					p.Run()
					runtime.ReadMemStats(&after)
					return int64(after.Mallocs - before.Mallocs)
				}
				mallocs(windows)
				short, long = math.MaxInt64, math.MaxInt64
				for i := 0; i < 3; i++ {
					short, long = min(short, mallocs(windows)), min(long, mallocs(4*windows))
				}
			})
			if long != short {
				t.Errorf("%d batches made %d allocations, %d batches %d: %d for %d extra batches, want 0",
					4*windows, short, 16*windows, long, long-short, 12*windows)
			}
		})
	}
}
