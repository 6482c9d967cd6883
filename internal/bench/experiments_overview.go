package bench

import (
	"fmt"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/workloads"
)

// paperSpec is the testbed of Section 6.1: slave nodes with one
// 4-core i5-4590 and two Tesla C2050s each.
func paperSpec(numWorkers, gpusPerWorker int, div int64) workloads.Spec {
	return workloads.Spec{
		Workers:       numWorkers,
		GPUsPerWorker: gpusPerWorker,
		Profile:       costmodel.C2050,
		ScaleDivisor:  div,
		OnBuild:       observeDeploy,
	}
}

// overviewRow runs one benchmark at one size on a fresh 10-slave
// deployment and returns (cpu, gpu) results.
func overviewRun(div int64, run func(g *core.GFlink) (workloads.Result, workloads.Result)) (workloads.Result, workloads.Result) {
	g := paperSpec(10, 2, div).Build()
	var cpu, gpu workloads.Result
	g.Run(func() {
		cpu, gpu = run(g)
	})
	return cpu, gpu
}

func init() {
	register(&Experiment{
		ID:    "fig5a",
		Title: "KMeans running time and speedup on the 10-slave cluster",
		Paper: "speedup ~5x, growing with input size",
		Run: func() *Table {
			t := &Table{ID: "fig5a", Header: []string{"points(M)", "Flink(CPU)", "GFlink", "speedup"}}
			t.Title = "KMeans on cluster"
			t.Paper = "speedup ~5x, growing with input size"
			var first, last float64
			for _, m := range []int64{150, 180, 210, 240, 270} {
				p := workloads.KMeansParams{Points: m * 1e6, Iterations: 10, UseCache: true, Seed: 7}
				cpu, gpu := overviewRun(200_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.KMeansCPU(g, p), workloads.KMeansGPU(g, p)
				})
				sp := workloads.Speedup(cpu, gpu)
				if m == 150 {
					first = sp
				}
				last = sp
				t.AddRow(fmt.Sprint(m), secs(cpu.Total), secs(gpu.Total), ratio(sp))
			}
			t.Note("speedup at 270M (%.2fx) vs 150M (%.2fx): %s", last, first, growthWord(first, last))
			return t
		},
	})

	register(&Experiment{
		ID:    "fig5b",
		Title: "PageRank running time and speedup on the 10-slave cluster",
		Paper: "speedup ~3.5x (bounded by the per-superstep shuffle)",
		Run: func() *Table {
			t := &Table{ID: "fig5b", Title: "PageRank on cluster", Paper: "speedup ~3.5x", Header: []string{"pages(M)", "Flink(CPU)", "GFlink", "speedup"}}
			for _, m := range []int64{5, 10, 15, 20, 25} {
				p := workloads.PageRankParams{Pages: m * 1e6, Iterations: 10, UseCache: true, Seed: 7}
				cpu, gpu := overviewRun(50_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.PageRankCPU(g, p), workloads.PageRankGPU(g, p)
				})
				t.AddRow(fmt.Sprint(m), secs(cpu.Total), secs(gpu.Total), ratio(workloads.Speedup(cpu, gpu)))
			}
			return t
		},
	})

	register(&Experiment{
		ID:    "fig5c",
		Title: "WordCount running time and speedup on the 10-slave cluster",
		Paper: "speedup only ~1.1x: one-pass batch job bottlenecked on I/O",
		Run: func() *Table {
			t := &Table{ID: "fig5c", Title: "WordCount on cluster", Paper: "speedup ~1.1x (I/O bound)", Header: []string{"input(GB)", "Flink(CPU)", "GFlink", "speedup"}}
			for _, gb := range []int64{24, 32, 40, 48, 56} {
				p := workloads.WordCountParams{Bytes: gb << 30, Seed: 7}
				cpu, gpu := overviewRun(1_000_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.WordCountCPU(g, p), workloads.WordCountGPU(g, p)
				})
				t.AddRow(fmt.Sprint(gb), secs(cpu.Total), secs(gpu.Total), ratio(workloads.Speedup(cpu, gpu)))
			}
			return t
		},
	})

	register(&Experiment{
		ID:    "fig6a",
		Title: "SpMV running time and speedup on the 10-slave cluster",
		Paper: "speedup ~6.3x: the cached matrix removes per-iteration PCIe traffic",
		Run: func() *Table {
			t := &Table{ID: "fig6a", Title: "SpMV on cluster", Paper: "speedup ~6.3x", Header: []string{"matrix(GB)", "Flink(CPU)", "GFlink", "speedup"}}
			for _, gb := range []int64{2, 4, 8, 16, 32} {
				// Fixed 30.75M-row dimension keeps the vector at the
				// paper's ~123 MB while density grows with matrix size.
				p := workloads.SpMVParams{MatrixBytes: gb << 30, FixedRows: 30_750_000, Iterations: 10, UseCache: true, Seed: 7}
				cpu, gpu := overviewRun(200_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.SpMVCPU(g, p), workloads.SpMVGPU(g, p)
				})
				t.AddRow(fmt.Sprint(gb), secs(cpu.Total), secs(gpu.Total), ratio(workloads.Speedup(cpu, gpu)))
			}
			return t
		},
	})

	register(&Experiment{
		ID:    "fig6b",
		Title: "LinearRegression running time and speedup on the 10-slave cluster",
		Paper: "speedup ~9.2x: per-point gradient math dominates, no large shuffle",
		Run: func() *Table {
			t := &Table{ID: "fig6b", Title: "LinearRegression on cluster", Paper: "speedup ~9.2x", Header: []string{"samples(M)", "Flink(CPU)", "GFlink", "speedup"}}
			for _, m := range []int64{150, 180, 210, 240, 270} {
				p := workloads.LinRegParams{Samples: m * 1e6, Iterations: 10, UseCache: true, Seed: 7}
				cpu, gpu := overviewRun(200_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.LinRegCPU(g, p), workloads.LinRegGPU(g, p)
				})
				t.AddRow(fmt.Sprint(m), secs(cpu.Total), secs(gpu.Total), ratio(workloads.Speedup(cpu, gpu)))
			}
			return t
		},
	})

	register(&Experiment{
		ID:    "fig6c",
		Title: "ComponentConnect running time and speedup on the 10-slave cluster",
		Paper: "speedup ~4.8x",
		Run: func() *Table {
			t := &Table{ID: "fig6c", Title: "ComponentConnect on cluster", Paper: "speedup ~4.8x", Header: []string{"pages(M)", "Flink(CPU)", "GFlink", "speedup"}}
			for _, m := range []int64{5, 10, 15, 20, 25} {
				p := workloads.ConnCompParams{Pages: m * 1e6, Iterations: 10, UseCache: true, Seed: 7}
				cpu, gpu := overviewRun(50_000, func(g *core.GFlink) (workloads.Result, workloads.Result) {
					return workloads.ConnCompCPU(g, p), workloads.ConnCompGPU(g, p)
				})
				t.AddRow(fmt.Sprint(m), secs(cpu.Total), secs(gpu.Total), ratio(workloads.Speedup(cpu, gpu)))
			}
			return t
		},
	})
}

func growthWord(first, last float64) string {
	if last > first {
		return "speedup grows with input size (Observation 3)"
	}
	return "WARNING: speedup did not grow with input size"
}
