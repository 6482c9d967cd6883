package bench

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:    "fig8a",
		Title: "Effect of the GPU cache scheme (SpMV per-iteration, single machine)",
		Paper: "without the cache the matrix re-crosses PCIe every iteration and per-iteration time rises",
		Run: func() *Table {
			t := &Table{ID: "fig8a", Title: "GPU cache effect on SpMV", Paper: "uncached iterations pay the matrix transfer every time", Header: []string{"iteration", "with cache", "without cache"}}
			p := workloads.SpMVParams{MatrixBytes: 1 << 30, NNZPerRow: 4, Iterations: 8, Seed: 7}
			type cell struct {
				r    workloads.Result
				hits int64
			}
			// The cached and uncached runs are independent deployments;
			// declared order (with, without) fixes the trace numbering.
			cells := RunPoints(2, func(i int, onBuild func(*core.GFlink)) cell {
				spec := paperSpec(1, 2, 50_000)
				spec.OnBuild = onBuild
				g := spec.Build()
				var r workloads.Result
				g.Run(func() {
					pc := p
					pc.UseCache = i == 0
					r = workloads.SpMVGPU(g, pc)
				})
				return cell{r, g.Obs.Metrics().Total("cache.hits")}
			})
			with, hitsWith := cells[0].r, cells[0].hits
			without, hitsWithout := cells[1].r, cells[1].hits
			for i := range with.Iterations {
				t.AddRow(fmt.Sprint(i+1), secs(with.Iterations[i]), secs(without.Iterations[i]))
			}
			// The registry note precedes the steady-state note: Check
			// parses the ratio from the LAST note.
			t.Note("gpu cache registry: %d hits with cache, %d without", hitsWith, hitsWithout)
			steady := len(with.Iterations) - 2
			t.Note("steady-state: uncached/cached = %.2fx", float64(without.Iterations[steady])/float64(with.Iterations[steady]))
			return t
		},
		Check: func(t *Table) error {
			// Simulated times are deterministic, so the steady-state
			// ratio is pinned tightly: any drift means a cost-model or
			// engine regression, not a noisy measurement.
			if len(t.Notes) == 0 {
				return fmt.Errorf("fig8a: missing steady-state note")
			}
			var r float64
			if _, err := fmt.Sscanf(t.Notes[len(t.Notes)-1], "steady-state: uncached/cached = %fx", &r); err != nil {
				return fmt.Errorf("fig8a: unparsable note %q: %w", t.Notes[len(t.Notes)-1], err)
			}
			if r < 1.80 || r > 1.88 {
				return fmt.Errorf("fig8a: steady-state uncached/cached = %.2fx, pinned band is [1.80, 1.88]", r)
			}
			// The metrics registry must agree with the figure's premise:
			// the cached run hits the GPU cache, the uncached run never
			// does.
			var hitsWith, hitsWithout int64
			found := false
			for _, n := range t.Notes {
				if _, err := fmt.Sscanf(n, "gpu cache registry: %d hits with cache, %d without", &hitsWith, &hitsWithout); err == nil {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("fig8a: missing gpu cache registry note")
			}
			if hitsWith <= 0 {
				return fmt.Errorf("fig8a: cached run recorded %d cache hits, want > 0", hitsWith)
			}
			if hitsWithout != 0 {
				return fmt.Errorf("fig8a: uncached run recorded %d cache hits, want 0", hitsWithout)
			}
			return nil
		},
	})

	register(&Experiment{
		ID:    "fig8b",
		Title: "GMapper/GReducer kernel speedups per GPU generation (single node)",
		Paper: "P100 fastest, then K20; C2050 and GTX750 comparable; GMapper speedups exceed end-to-end speedups; the GReducer gains little",
		Run: func() *Table {
			profiles := []costmodel.GPUProfile{costmodel.GTX750, costmodel.C2050, costmodel.K20, costmodel.P100}
			t := &Table{ID: "fig8b", Title: "Kernel speedups by GPU generation", Paper: "P100 > K20 > C2050 ~ GTX750; GReducer low",
				Header: []string{"kernel", "GTX750", "C2050", "K20", "P100"}}
			type bench struct {
				name string
				run  func(g *core.GFlink) (cpu, gpu time.Duration)
			}
			benches := []bench{
				// Compute-heavy configurations so the kernels, not PCIe,
				// dominate the measured GMapper phase.
				{"KMeans GMapper", func(g *core.GFlink) (time.Duration, time.Duration) {
					p := workloads.KMeansParams{Points: 30e6, K: 40, D: 32, Iterations: 3, UseCache: true, Seed: 7}
					c := workloads.KMeansCPU(g, p)
					r := workloads.KMeansGPU(g, p)
					return c.MapPhase, r.MapPhase
				}},
				{"SpMV GMapper", func(g *core.GFlink) (time.Duration, time.Duration) {
					p := workloads.SpMVParams{MatrixBytes: 1 << 30, NNZPerRow: 64, Iterations: 3, UseCache: true, Seed: 7}
					c := workloads.SpMVCPU(g, p)
					r := workloads.SpMVGPU(g, p)
					return c.MapPhase, r.MapPhase
				}},
				{"PointAdd GMapper", func(g *core.GFlink) (time.Duration, time.Duration) {
					p := workloads.PointAddParams{Points: 100e6, Iterations: 2, Seed: 7}
					c := workloads.PointAddCPU(g, p)
					r := workloads.PointAddGPU(g, p)
					return c.MapPhase, r.MapPhase
				}},
				// The reducer is not compute-intensive: its end-to-end
				// reduce path (scan + shuffle + reduce) gains little.
				{"WordCount GReducer", func(g *core.GFlink) (time.Duration, time.Duration) {
					p := workloads.WordCountParams{Bytes: 4 << 30, Seed: 7}
					c := workloads.WordCountCPU(g, p)
					r := workloads.WordCountGPU(g, p)
					return c.Total, r.Total
				}},
			}
			// One deployment per GPU generation, fanned out across OS
			// threads; each point returns its column of speedups.
			cols := RunPoints(len(profiles), func(pi int, onBuild func(*core.GFlink)) []float64 {
				spec := paperSpec(1, 2, 100_000)
				spec.Profile = profiles[pi]
				spec.OnBuild = onBuild
				g := spec.Build()
				col := make([]float64, len(benches))
				g.Run(func() {
					for bi, b := range benches {
						cpu, gpu := b.run(g)
						if gpu > 0 {
							col[bi] = float64(cpu) / float64(gpu)
						}
					}
				})
				return col
			})
			results := make([][]float64, len(benches))
			for bi := range benches {
				results[bi] = make([]float64, len(profiles))
				for pi := range profiles {
					results[bi][pi] = cols[pi][bi]
				}
			}
			for bi, b := range benches {
				row := []string{b.name}
				for pi := range profiles {
					row = append(row, ratio(results[bi][pi]))
				}
				t.AddRow(row...)
			}
			t.Note("KMeans GMapper on P100/K20/C2050: %.1f/%.1f/%.1f", results[0][3], results[0][2], results[0][1])
			return t
		},
	})

	register(&Experiment{
		ID:    "fig8c",
		Title: "Concurrent multi-application execution on a single node",
		Paper: "running three apps concurrently takes slightly more than the sum of their exclusive times (the GPUs are shared)",
		Run: func() *Table {
			t := &Table{ID: "fig8c", Title: "Concurrent apps, single node", Paper: "concurrent total slightly exceeds sum of exclusive runs",
				Header: []string{"application", "exclusive", "concurrent"}}
			const div = 100_000
			// Transfer-heavy, uncached configurations: each application on
			// its own saturates the node's GPUs, so sharing them cannot
			// overlap (the paper's setting).
			apps := []struct {
				name string
				run  func(g *core.GFlink)
			}{
				{"KMeans", func(g *core.GFlink) {
					workloads.KMeansGPU(g, workloads.KMeansParams{Points: 400e6, Iterations: 5, Parallelism: 2, Seed: 7})
				}},
				{"SpMV", func(g *core.GFlink) {
					workloads.SpMVGPU(g, workloads.SpMVParams{MatrixBytes: 8 << 30, FixedRows: 30_750_000, Iterations: 5, Parallelism: 2, Seed: 7})
				}},
				{"PointAdd", func(g *core.GFlink) {
					workloads.PointAddGPU(g, workloads.PointAddParams{Points: 1e9, Iterations: 5, Parallelism: 2, Seed: 7})
				}},
			}
			// Exclusive runs.
			var exclusive []time.Duration
			var exclusiveSum time.Duration
			for _, app := range apps {
				g := paperSpec(1, 2, div).Build()
				app := app
				var d time.Duration
				g.Run(func() {
					t0 := g.Clock.Now()
					app.run(g)
					d = g.Clock.Now() - t0
				})
				exclusive = append(exclusive, d)
				exclusiveSum += d
			}
			// Concurrent run on one shared deployment.
			g := paperSpec(1, 2, div).Build()
			var each []time.Duration
			var makespan time.Duration
			g.Run(func() {
				drivers := make([]func(), len(apps))
				for i, app := range apps {
					app := app
					drivers[i] = func() { app.run(g) }
				}
				each, makespan = workloads.RunConcurrently(g.Clock, drivers)
			})
			for i, app := range apps {
				t.AddRow(app.name, secs(exclusive[i]), secs(each[i]))
			}
			t.AddRow("TOTAL", secs(exclusiveSum), secs(makespan))
			t.Note("concurrent makespan / sum of exclusive = %.2f (paper: slightly above 1.0 per app-triple)", makespan.Seconds()/exclusiveSum.Seconds())
			return t
		},
	})

	register(&Experiment{
		ID:    "fig8d",
		Title: "Concurrent multi-application execution on the 10-slave cluster",
		Paper: "exclusive speedups are roughly 4x the speedups under 3-way concurrency",
		Run: func() *Table {
			t := &Table{ID: "fig8d", Title: "Concurrent apps, cluster", Paper: "exclusive speedup ~4x the concurrent speedup",
				Header: []string{"application", "CPU", "GPU exclusive", "speedup excl", "GPU concurrent", "speedup conc"}}
			const div = 200_000
			type app struct {
				name string
				cpu  func(g *core.GFlink) workloads.Result
				gpu  func(g *core.GFlink) workloads.Result
			}
			// Uncached, transfer-heavy settings (parallelism 10, one task
			// per slave and app): each application alone keeps every GPU
			// busy, so three-way sharing serializes on the devices.
			apps := []app{
				{"KMeans",
					func(g *core.GFlink) workloads.Result {
						return workloads.KMeansCPU(g, workloads.KMeansParams{Points: 800e6, Iterations: 5, Parallelism: 10, FromHDFS: true, WriteResult: true, Seed: 7})
					},
					func(g *core.GFlink) workloads.Result {
						return workloads.KMeansGPU(g, workloads.KMeansParams{Points: 800e6, Iterations: 5, Parallelism: 10, FromHDFS: true, WriteResult: true, Seed: 7})
					}},
				{"SpMV",
					func(g *core.GFlink) workloads.Result {
						return workloads.SpMVCPU(g, workloads.SpMVParams{MatrixBytes: 16 << 30, FixedRows: 30_750_000, Iterations: 5, Parallelism: 10, FromHDFS: true, WriteResult: true, Seed: 7})
					},
					func(g *core.GFlink) workloads.Result {
						return workloads.SpMVGPU(g, workloads.SpMVParams{MatrixBytes: 16 << 30, FixedRows: 30_750_000, Iterations: 5, Parallelism: 10, FromHDFS: true, WriteResult: true, Seed: 7})
					}},
				{"PointAdd",
					func(g *core.GFlink) workloads.Result {
						return workloads.PointAddCPU(g, workloads.PointAddParams{Points: 2e9, Iterations: 5, Parallelism: 10, Seed: 7})
					},
					func(g *core.GFlink) workloads.Result {
						return workloads.PointAddGPU(g, workloads.PointAddParams{Points: 2e9, Iterations: 5, Parallelism: 10, Seed: 7})
					}},
			}
			var cpuT, exclT []time.Duration
			for _, a := range apps {
				g := paperSpec(10, 2, div).Build()
				var c, r workloads.Result
				g.Run(func() {
					c = a.cpu(g)
					r = a.gpu(g)
				})
				cpuT = append(cpuT, c.Total)
				exclT = append(exclT, r.Total)
			}
			g := paperSpec(10, 2, div).Build()
			var each []time.Duration
			g.Run(func() {
				drivers := make([]func(), len(apps))
				for i, a := range apps {
					a := a
					drivers[i] = func() { a.gpu(g) }
				}
				each, _ = workloads.RunConcurrently(g.Clock, drivers)
			})
			var exclSp, concSp float64
			for i, a := range apps {
				se := float64(cpuT[i]) / float64(exclT[i])
				sc := float64(cpuT[i]) / float64(each[i])
				exclSp += se
				concSp += sc
				t.AddRow(a.name, secs(cpuT[i]), secs(exclT[i]), ratio(se), secs(each[i]), ratio(sc))
			}
			t.Note("mean exclusive speedup / mean concurrent speedup = %.2f (paper: ~4)", exclSp/concSp)
			return t
		},
	})
}
