// Streaming: the DataStream counterpart to the quickstart's batch plan.
// A generator source on worker 0 outruns a tumbling-window aggregation
// on worker 1, so the bounded edge between them exercises credit-based
// backpressure; the window lowers onto the GPU (or a CPU slot under
// -cpu) by the placement mode, the rule the plan layer uses. The
// program runs the pipeline at three buffer limits and prints the
// throughput-vs-buffer-limit curve the abl-backpressure experiment
// pins, then dumps the stream.* counters of the last run.
package main

import (
	"flag"
	"fmt"
	"strings"

	"gflink"
	"gflink/internal/costmodel"
)

func main() {
	cpu := flag.Bool("cpu", false, "force the window stage onto a CPU slot")
	records := flag.Int64("records", 1<<17, "records to stream")
	flag.Parse()

	mode := gflink.ForceGPU
	if *cpu {
		mode = gflink.ForceCPU
	}

	fmt.Printf("streaming %d records, window mode %v\n\n", *records, mode)
	fmt.Printf("%-8s %-14s %-14s %-10s\n", "buffer", "throughput", "blocked", "windows")

	var last *gflink.GFlink
	for _, limit := range []int{1, 4, 16} {
		// Fresh deployment per run: pipelines are one-shot, like jobs.
		g := gflink.New(gflink.Config{
			Config:        gflink.ClusterConfig{Workers: 2, Model: costmodel.Default()},
			GPUsPerWorker: 1,
		})
		var res gflink.StreamResult
		g.Run(func() {
			p := gflink.NewStream(g, "example",
				gflink.StreamWithMode(mode),
				gflink.StreamWithBufferBatches(limit))
			p.Source("gen", 0, gflink.StreamSourceSpec{Records: *records, Seed: 42}).
				Window("agg", 1, gflink.StreamWindowSpec{Records: 1024, Slots: 256}).
				Sink("out", 0)
			res = p.Run()
		})
		fmt.Printf("%-8d %-14s %-14v %-10d\n", limit,
			fmt.Sprintf("%.0f rec/s", res.Throughput), res.Blocked, res.Windows)
		last = g
	}

	fmt.Println("\nstream.* counters of the 16-batch run:")
	for _, m := range last.Obs.Metrics().Snapshot() {
		if strings.HasPrefix(m.Name, "stream.") {
			fmt.Printf("  %-24s %d\n", m.Name, m.Value)
		}
	}
}
