package bench

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
	"gflink/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:    "fig7a",
		Title: "KMeans per-iteration time (210M points, 3-slave cluster)",
		Paper: "first iteration pays HDFS read, last pays the result write; middle iterations are fast and GPU-dominated",
		Run: func() *Table {
			t := &Table{ID: "fig7a", Title: "KMeans per-iteration", Paper: "slow first/last iterations; fast cached middle", Header: []string{"iteration", "Flink(CPU)", "GFlink"}}
			p := workloads.KMeansParams{Points: 210e6, Iterations: 10, UseCache: true, FromHDFS: true, WriteResult: true, Seed: 7}
			g := paperSpec(3, 2, 200_000).Build()
			var cpu, gpuR workloads.Result
			g.Run(func() {
				cpu = workloads.KMeansCPU(g, p)
				gpuR = workloads.KMeansGPU(g, p)
			})
			for i := range cpu.Iterations {
				t.AddRow(fmt.Sprint(i+1), secs(cpu.Iterations[i]), secs(gpuR.Iterations[i]))
			}
			mid := gpuR.Iterations[len(gpuR.Iterations)/2]
			t.Note("GFlink first iteration / middle iteration = %.1fx (I/O + first transfer)", float64(gpuR.Iterations[0])/float64(mid))
			t.Note("GFlink last iteration / middle iteration = %.1fx (result write)", float64(gpuR.Iterations[len(gpuR.Iterations)-1])/float64(mid))
			return t
		},
	})

	register(&Experiment{
		ID:    "fig7b",
		Title: "SpMV per-iteration time (1.0 GB matrix, 123 MB vector, single machine)",
		Paper: "GPU ~2.5x over CPU in iteration 1, ~10x afterwards; 2 GPUs beat 1; last iteration writes to HDFS",
		Run: func() *Table {
			t := &Table{ID: "fig7b", Title: "SpMV per-iteration, single machine", Paper: "first iter ~2.5x, steady ~10x, 2 GPUs < 1 GPU", Header: []string{"iteration", "CPU", "1 GPU", "2 GPUs"}}
			p := workloads.SpMVParams{MatrixBytes: 1 << 30, NNZPerRow: 4, Iterations: 10, UseCache: true, FromHDFS: true, WriteResult: true, Seed: 7}
			run := func(gpus int, gpuPath bool) workloads.Result {
				g := paperSpec(1, max(gpus, 1), 50_000).Build()
				var r workloads.Result
				g.Run(func() {
					if gpuPath {
						r = workloads.SpMVGPU(g, p)
					} else {
						r = workloads.SpMVCPU(g, p)
					}
				})
				return r
			}
			cpu := run(0, false)
			g1 := run(1, true)
			g2 := run(2, true)
			for i := range cpu.Iterations {
				t.AddRow(fmt.Sprint(i+1), secs(cpu.Iterations[i]), secs(g1.Iterations[i]), secs(g2.Iterations[i]))
			}
			steady := len(cpu.Iterations) / 2
			t.Note("steady-state speedup: 1 GPU %.1fx, 2 GPUs %.1fx over CPU",
				float64(cpu.Iterations[steady])/float64(g1.Iterations[steady]),
				float64(cpu.Iterations[steady])/float64(g2.Iterations[steady]))
			t.Note("first-iteration speedup: 1 GPU %.1fx over CPU",
				float64(cpu.Iterations[0])/float64(g1.Iterations[0]))
			return t
		},
	})

	register(&Experiment{
		ID:    "fig7c",
		Title: "KMeans average time vs number of slave nodes (210M points)",
		Paper: "CPU time falls quickly with more slaves; GPU time falls slowly (already communication-bound)",
		Run: func() *Table {
			t := &Table{ID: "fig7c", Title: "KMeans scaling with slaves", Paper: "CPU scales ~linearly, GPU flattens", Header: []string{"slaves", "Flink(CPU)", "GFlink", "speedup"}}
			p := workloads.KMeansParams{Points: 210e6, Iterations: 10, UseCache: true, Seed: 7}
			var cpuTimes, gpuTimes []time.Duration
			for _, w := range []int{1, 2, 4, 6, 8, 10} {
				g := paperSpec(w, 2, 200_000).Build()
				var cpu, gpuR workloads.Result
				g.Run(func() {
					cpu = workloads.KMeansCPU(g, p)
					gpuR = workloads.KMeansGPU(g, p)
				})
				cpuTimes = append(cpuTimes, cpu.Total)
				gpuTimes = append(gpuTimes, gpuR.Total)
				t.AddRow(fmt.Sprint(w), secs(cpu.Total), secs(gpuR.Total), ratio(workloads.Speedup(cpu, gpuR)))
			}
			t.Note("CPU 1->10 slaves: %.1fx faster; GPU 1->10 slaves: %.1fx faster",
				float64(cpuTimes[0])/float64(cpuTimes[len(cpuTimes)-1]),
				float64(gpuTimes[0])/float64(gpuTimes[len(gpuTimes)-1]))
			return t
		},
	})

	register(&Experiment{
		ID:    "fig7d",
		Title: "SpMV average time vs number of slave nodes (10 GB matrix)",
		Paper: "same shape as Fig 7c: the GPU side stops scaling once communication dominates",
		Run: func() *Table {
			t := &Table{ID: "fig7d", Title: "SpMV scaling with slaves", Paper: "CPU scales ~linearly, GPU flattens", Header: []string{"slaves", "Flink(CPU)", "GFlink", "speedup"}}
			p := workloads.SpMVParams{MatrixBytes: 10 << 30, FixedRows: 30_750_000, Iterations: 10, UseCache: true, Seed: 7}
			var cpuTimes, gpuTimes []time.Duration
			for _, w := range []int{1, 2, 4, 6, 8, 10} {
				g := paperSpec(w, 2, 200_000).Build()
				var cpu, gpuR workloads.Result
				g.Run(func() {
					cpu = workloads.SpMVCPU(g, p)
					gpuR = workloads.SpMVGPU(g, p)
				})
				cpuTimes = append(cpuTimes, cpu.Total)
				gpuTimes = append(gpuTimes, gpuR.Total)
				t.AddRow(fmt.Sprint(w), secs(cpu.Total), secs(gpuR.Total), ratio(workloads.Speedup(cpu, gpuR)))
			}
			t.Note("CPU 1->10 slaves: %.1fx faster; GPU 1->10 slaves: %.1fx faster",
				float64(cpuTimes[0])/float64(cpuTimes[len(cpuTimes)-1]),
				float64(gpuTimes[0])/float64(gpuTimes[len(gpuTimes)-1]))
			return t
		},
	})

	register(&Experiment{
		ID:    "table2",
		Title: "Transfer-channel bandwidth, host to device",
		Paper: "GFlink trails native for small transfers (JNI redirect) and matches it beyond ~256 KiB, plateauing near 3 GB/s",
		Run: func() *Table {
			t := &Table{ID: "table2", Title: "Transfer-channel bandwidth H2D", Paper: "ramp to ~3 GB/s; native faster only for small transfers",
				Header: []string{"bytes", "GFlink(MB/s)", "native(MB/s)", "paper GFlink", "paper native"}}
			paperG := map[int64]string{2048: "776", 4096: "1241", 16384: "2196", 32768: "2556", 131072: "2858", 262144: "2968", 524288: "2960", 1048576: "2974"}
			paperN := map[int64]string{2048: "814", 4096: "1348", 16384: "2245", 32768: "2647", 131072: "2878", 262144: "2945", 524288: "2932", 1048576: "2964"}
			g := paperSpec(1, 1, 1).Build()
			type row struct{ gf, nat float64 }
			rows := map[int64]row{}
			sizes := []int64{2048, 4096, 16384, 32768, 131072, 262144, 524288, 1048576}
			g.Run(func() {
				dev := g.Manager(0).Devices[0]
				s := dev.NewStream(g.Cfg.Config.Model.CPU)
				done := vclock.NewEvent(g.Clock)
				pool := g.Cluster.TaskManagers[0].Pool
				for _, n := range sizes {
					h := pool.MustAllocate(int(min(n, 4096)))
					h.Pin()
					buf, err := dev.Malloc(n, 0)
					if err != nil {
						panic(err)
					}
					// GFlink's transfer channel pays the JNI redirect
					// before the DMA; a native copy is the DMA alone.
					t0 := g.Clock.Now()
					g.Clock.Sleep(g.Cfg.Config.Model.PCIe.JNIRedirect)
					h2d(s, done, buf, h, n)
					gf := g.Clock.Now() - t0
					t1 := g.Clock.Now()
					h2d(s, done, buf, h, n)
					nat := g.Clock.Now() - t1
					rows[n] = row{
						gf:  float64(n) / gf.Seconds() / 1e6,
						nat: float64(n) / nat.Seconds() / 1e6,
					}
					dev.Free(buf)
					h.Free()
				}
			})
			for _, n := range sizes {
				r := rows[n]
				t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.0f", r.gf), fmt.Sprintf("%.0f", r.nat), paperG[n], paperN[n])
			}
			small, large := rows[2048], rows[1048576]
			t.Note("small transfers: native/GFlink = %.2f (paper: %.2f)", small.nat/small.gf, 814.0/776.0)
			t.Note("large transfers converge: native/GFlink = %.2f", large.nat/large.gf)
			return t
		},
	})
}

// kernel used by the layout ablation: pure bandwidth.
func init() {
	gpu.Register("bench.copy", func(ctx *gpu.KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		copy(out, in)
		ctx.Charge(costmodel.Work{BytesRead: float64(ctx.Nominal), BytesWritten: float64(ctx.Nominal)})
		return nil
	})
}

// h2d copies n nominal bytes of the page-locked buffer h into buf on
// stream s and waits until the copy is done: H2DAsync, then a callback
// that sets done.
func h2d(s *gpu.Stream, done *vclock.Event, buf *gpu.Buffer, h *membuf.HBuffer, n int64) {
	done.Reset()
	s.H2DAsync(buf, h, n)
	s.Callback(done.Set)
	done.Wait()
}
