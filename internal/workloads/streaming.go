package workloads

import (
	"gflink/internal/core"
	"gflink/internal/plan"
	"gflink/internal/stream"
)

// BackpressureParams configures the streaming backpressure workload: a
// generator source on worker 0 feeding a tumbling-window aggregation on
// the last worker (so every batch crosses the cluster network), with
// the aggregates draining back to a sink on worker 0.
type BackpressureParams struct {
	// Records bounds the stream.
	Records int64
	// Mode places the window stage (plan.ForceCPU or plan.ForceGPU).
	Mode plan.Mode
	// BufferBatches is the per-edge credit limit; 0 keeps the stream
	// layer's default.
	BufferBatches int
	// Seed keys the generator (default 42).
	Seed uint64
}

// Backpressure runs the rate-mismatched source→window→sink pipeline and
// returns its result. Windows are 1024 records wide and aggregate into
// the stream layer's default 256 slots, in micro-batches of its default
// size. Must be called inside g.Run, like every driver in this package.
func Backpressure(g *core.GFlink, p BackpressureParams) stream.Result {
	if p.Seed == 0 {
		p.Seed = 42
	}
	opts := []stream.Option{stream.WithMode(p.Mode)}
	if p.BufferBatches > 0 {
		opts = append(opts, stream.WithBufferBatches(p.BufferBatches))
	}
	windowWorker := g.Cfg.Config.Workers - 1
	pl := stream.New(g, "backpressure", opts...)
	pl.Source("source", 0, stream.SourceSpec{Records: p.Records, Seed: p.Seed}).
		Window("window", windowWorker, stream.WindowSpec{Records: 1024}).
		Sink("sink", 0)
	return pl.Run()
}
