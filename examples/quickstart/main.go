// Quickstart: the PointAdd program of the paper's Algorithm 3.1,
// written against the deferred plan API. It declares a GStruct, builds
// a plan whose source materializes a GDST and whose GPUMap node runs a
// registered kernel, executes the plan, verifies the result, prints
// the simulated times and the plan's Explain() report, and writes a
// Chrome trace of the run — all on a 2-worker cluster with two Tesla
// C2050s per node.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gflink"
	"gflink/internal/costmodel"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

func main() {
	g := gflink.New(gflink.Config{
		Config: gflink.ClusterConfig{
			Workers:      2,
			Model:        costmodel.Default(),
			ScaleDivisor: 100_000, // simulate 100M points over 1k real ones
		},
		GPUsPerWorker: 2,
	})

	// The GStruct of Algorithm 3.1 and the CUDA struct it maps to.
	fmt.Println(kernels.Point3Schema.CLayout())

	const points = 100_000_000
	// The graph outlives Run so Explain can report measured stage times
	// after the simulation finishes.
	var gr *gflink.Plan
	total := g.Run(func() {
		// Build the deferred graph: nothing below touches the virtual
		// clock until Execute submits the job and materializes the nodes.
		gr = gflink.NewPlan(g, "quickstart", gflink.PlanOptions{Mode: gflink.ForceGPU})

		// Source node: a GDST of Point3 records — raw bytes in off-heap
		// blocks, ready for DMA without serialization. The fill runs once
		// per block, and element i of the block's view stands for nominal
		// record ord0 + i*step. Point3 blocks are AoS, so this fill writes
		// element by element; a SoA fill writes each field as one run
		// through v.Column.
		var ds gflink.GDST
		src := plan.Source(gr, "points", func(ctx *plan.Ctx) gflink.GDST {
			ds = gflink.NewGDST(g, ctx.Job, kernels.Point3Schema, gflink.AoS, points, 0,
				func(part int, v gstruct.View, ord0, step int64) {
					for i := 0; i < v.Len(); i++ {
						ord := ord0 + int64(i)*step
						v.PutFloat32At(i, 0, 0, float32(ord%100))
						v.PutFloat32At(i, 1, 0, float32(ord%10))
						v.PutFloat32At(i, 2, 0, 1)
					}
				})
			return ds
		})

		// Timing probe + GPUMap node: the cudaAddPoint kernel over every
		// block (Algorithm 3.1's gpuMapPartition with GWork assembled
		// under the hood) — deferred until Execute.
		var t0 time.Duration
		plan.Do(gr, "mark", func(ctx *plan.Ctx) { t0 = g.Clock.Now() })
		mapped := gflink.PlanGPUMap(src, gflink.GPUMapSpec{
			Name:      "addPoint",
			Kernel:    kernels.PointAddKernel,
			OutSchema: kernels.Point3Schema,
			OutLayout: gflink.AoS,
			Args: []int64{
				kernels.F32Arg(1.5), kernels.F32Arg(-2), kernels.F32Arg(0.25),
			},
		})

		// Sink node: verify every output point is input + (1.5, -2, 0.25)
		// and release the blocks.
		plan.Sink(mapped, "verify", func(ctx *plan.Ctx, out gflink.GDST) {
			mapTime := g.Clock.Now() - t0
			first := out.Partition(0).Items[0].View()
			in := ds.Partition(0).Items[0].View()
			fmt.Printf("point[0]: (%.2f, %.2f, %.2f) -> (%.2f, %.2f, %.2f)\n",
				in.Float32At(0, 0, 0), in.Float32At(0, 1, 0), in.Float32At(0, 2, 0),
				first.Float32At(0, 0, 0), first.Float32At(0, 1, 0), first.Float32At(0, 2, 0))
			fmt.Printf("gpuMapPartition over %dM points (simulated): %v\n", points/1_000_000, mapTime)
			gflink.FreeBlocks(out)
			gflink.FreeBlocks(ds)
		})

		gr.Execute()
	})
	fmt.Printf("total simulated job time: %v\n", total)

	// Explain renders the plan after the fact: the stage list the
	// chaining pass produced and the simulated time each stage took.
	fmt.Println()
	fmt.Print(gflink.Explain(gr))

	// Every deployment records spans on its virtual clock; export them
	// as Chrome trace_event JSON (open at chrome://tracing). The file is
	// byte-identical across runs — observability never perturbs the
	// simulation.
	trace, err := gflink.ChromeTrace(gflink.TraceProcess{Name: "quickstart", Tracer: g.Obs.Tracer()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "building trace:", err)
		os.Exit(1)
	}
	// The trace lands in the system temp dir (or the path given as the
	// first argument) rather than the working directory, so running the
	// example never litters a source checkout.
	out := filepath.Join(os.TempDir(), "quickstart-trace.json")
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	if err := os.WriteFile(out, trace, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "writing trace:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d spans: queue wait, H2D, kernel, D2H per GWork)\n", out, g.Obs.Tracer().Len())
}
