package bench

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/vclock"
	"gflink/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:    "abl-layout",
		Title: "Ablation: data layout (AoS vs SoA vs AoP) on a bandwidth-bound kernel",
		Paper: "Section 2.1/3.2: columnar layouts coalesce global-memory accesses; AoS pays a bandwidth penalty",
		Run: func() *Table {
			t := &Table{ID: "abl-layout", Title: "Layout ablation", Paper: "SoA/AoP coalesced; AoS penalized",
				Header: []string{"layout", "kernel time", "vs SoA"}}
			g := paperSpec(1, 1, 1).Build()
			times := map[string]time.Duration{}
			g.Run(func() {
				dev := g.Manager(0).Devices[0]
				for _, layout := range []string{"AoS", "SoA", "AoP"} {
					in, _ := dev.Malloc(1<<30, 8)
					out, _ := dev.Malloc(1<<30, 8)
					ctx := &gpu.KernelCtx{In: []*gpu.Buffer{in}, Out: []*gpu.Buffer{out}, N: 8, Nominal: 1 << 30}
					ctx.SetCoalesce(coalesceOf(layout))
					t0 := g.Clock.Now()
					if _, err := dev.Launch("bench.copy", ctx); err != nil {
						panic(err)
					}
					times[layout] = g.Clock.Now() - t0
					dev.Free(in)
					dev.Free(out)
				}
			})
			for _, layout := range []string{"AoS", "SoA", "AoP"} {
				t.AddRow(layout, fmt.Sprintf("%.1fms", times[layout].Seconds()*1e3),
					fmt.Sprintf("%.2fx", float64(times[layout])/float64(times["SoA"])))
			}
			t.Note("AoS / SoA = %.2f (coalescing factor %.2f)", float64(times["AoS"])/float64(times["SoA"]), coalesceOf("AoS"))
			return t
		},
	})

	register(&Experiment{
		ID:    "abl-zerocopy",
		Title: "Ablation: off-heap zero-copy transfer vs naive heap path",
		Paper: "Section 4.1: the naive path adds JVM-heap-to-native copies and serialization; GFlink's off-heap layout removes both",
		Run: func() *Table {
			t := &Table{ID: "abl-zerocopy", Title: "Zero-copy ablation", Paper: "naive = serde + heap copy + DMA; GFlink = redirect + DMA",
				Header: []string{"bytes", "naive path", "GFlink path", "saving"}}
			g := paperSpec(1, 1, 1).Build()
			g.Run(func() {
				dev := g.Manager(0).Devices[0]
				cpu := g.Cfg.Config.Model.CPU
				s := dev.NewStream(cpu)
				done := vclock.NewEvent(g.Clock)
				pool := g.Cluster.TaskManagers[0].Pool
				for _, n := range []int64{1 << 20, 16 << 20, 128 << 20} {
					buf, err := dev.Malloc(n, 0)
					if err != nil {
						panic(err)
					}
					// Naive: serialize JVM objects into a heap buffer, copy
					// heap -> native (the staging copy an unpinned buffer
					// pays), then DMA. The stream copies only page-locked
					// memory, so the buffer is pinned outside the timing.
					hn := pool.MustAllocate(64)
					hn.Pin()
					t0 := g.Clock.Now()
					g.Clock.Sleep(cpu.SerDe(n))
					g.Clock.Sleep(cpu.HeapCopy(n))
					h2d(s, done, buf, hn, n)
					naive := g.Clock.Now() - t0
					// GFlink: raw off-heap bytes, page-locked, through the
					// transfer channel's JNI redirect.
					hg := pool.MustAllocate(64)
					hg.Pin()
					t1 := g.Clock.Now()
					g.Clock.Sleep(g.Cfg.Config.Model.PCIe.JNIRedirect)
					h2d(s, done, buf, hg, n)
					zero := g.Clock.Now() - t1
					t.AddRow(fmt.Sprintf("%dMiB", n>>20), fmt.Sprintf("%.1fms", naive.Seconds()*1e3),
						fmt.Sprintf("%.1fms", zero.Seconds()*1e3), ratio(float64(naive)/float64(zero)))
					dev.Free(buf)
					hn.Free()
					hg.Free()
				}
			})
			return t
		},
	})

	register(&Experiment{
		ID:    "abl-pipeline",
		Title: "Ablation: three-stage pipelining (streams per GPU)",
		Paper: "Section 5: asynchronous streams overlap H2D, kernel and D2H; one stream serializes the stages",
		Run: func() *Table {
			t := &Table{ID: "abl-pipeline", Title: "Pipelining ablation", Paper: "more streams -> overlap -> shorter makespan",
				Header: []string{"streams/GPU", "PointAdd total", "vs 1 stream"}}
			var base time.Duration
			for _, streams := range []int{1, 2, 4, 8} {
				// A K20 (two copy engines) so H2D and D2H of different
				// streams genuinely overlap.
				spec := paperSpec(1, 1, 100_000)
				spec.Profile = costmodel.K20
				spec.StreamsPerGPU = streams
				g := spec.Build()
				var r workloads.Result
				g.Run(func() {
					r = workloads.PointAddGPU(g, workloads.PointAddParams{Points: 400e6, Iterations: 2, Parallelism: 2, Seed: 7})
				})
				if streams == 1 {
					base = r.Total
				}
				t.AddRow(fmt.Sprint(streams), secs(r.Total), fmt.Sprintf("%.2fx", float64(base)/float64(r.Total)))
			}
			return t
		},
	})

	register(&Experiment{
		ID:    "abl-locality",
		Title: "Ablation: locality-aware scheduling (Algorithm 5.1) vs round-robin",
		Paper: "Section 5.3: placing work on the GPU that caches its input avoids re-transfers; round-robin thrashes a capacity-limited cache",
		Run: func() *Table {
			t := &Table{ID: "abl-locality", Title: "Locality scheduling ablation", Paper: "locality-aware beats round-robin under cache pressure",
				Header: []string{"scheduler", "SpMV total", "vs locality"}}
			run := func(policy core.SchedulerPolicy) time.Duration {
				spec := paperSpec(1, 2, 50_000)
				spec.Scheduler = policy
				// Cache sized to half the matrix per device: with locality
				// each GPU keeps its half resident; round-robin placement
				// bounces blocks and thrashes.
				spec.CacheBytes = 1 << 30
				g := spec.Build()
				var r workloads.Result
				g.Run(func() {
					r = workloads.SpMVGPU(g, workloads.SpMVParams{MatrixBytes: 2 << 30, NNZPerRow: 4, Iterations: 8, Parallelism: 4, UseCache: true, Seed: 7})
				})
				return r.Total
			}
			loc := run(core.LocalityAware)
			rr := run(core.RoundRobin)
			t.AddRow("locality-aware", secs(loc), "1.00x")
			t.AddRow("round-robin", secs(rr), fmt.Sprintf("%.2fx", float64(rr)/float64(loc)))
			t.Note("round-robin / locality = %.2f", float64(rr)/float64(loc))
			return t
		},
	})

	register(&Experiment{
		ID:    "abl-stealing",
		Title: "Ablation: locality-aware work stealing (Algorithm 5.2)",
		Paper: "Section 5.3: when locality pins a queue to one GPU, idle streams on the other GPU steal from it",
		Run: func() *Table {
			t := &Table{ID: "abl-stealing", Title: "Work-stealing ablation", Paper: "stealing engages the idle GPU and shortens the makespan",
				Header: []string{"stealing", "makespan", "vs on"}}
			run := func(disable bool) time.Duration {
				spec := paperSpec(1, 2, 1)
				spec.StreamsPerGPU = 1
				spec.NoStealing = disable
				g := spec.Build()
				var makespan time.Duration
				g.Run(func() {
					pool := g.Cluster.TaskManagers[0].Pool
					key := core.CacheKey{JobID: 1, Partition: 0, Block: 0}
					in := pool.MustAllocate(256)
					// Warm the cache on one GPU so Algorithm 5.1 pins all
					// later work there.
					warm := &core.GWork{
						ExecuteName: "bench.copy", Size: 8, Nominal: 64 << 20,
						BlockSize: 256, GridSize: 1,
						In:  []core.Input{{Buf: in, Nominal: 256 << 20, Cache: true, Key: key}},
						Out: pool.MustAllocate(256), OutNominal: 256 << 20, JobID: 1,
					}
					g.Manager(0).Streams.Submit(warm)
					if err := warm.Wait(); err != nil {
						panic(err)
					}
					warm.Out.Free()
					t0 := g.Clock.Now()
					var works []*core.GWork
					for i := 0; i < 16; i++ {
						w := &core.GWork{
							ExecuteName: "bench.copy", Size: 8, Nominal: 64 << 20,
							BlockSize: 256, GridSize: 1,
							In:  []core.Input{{Buf: in, Nominal: 256 << 20, Cache: true, Key: key}},
							Out: pool.MustAllocate(256), OutNominal: 256 << 20, JobID: 1,
						}
						g.Manager(0).Streams.Submit(w)
						works = append(works, w)
					}
					for _, w := range works {
						if err := w.Wait(); err != nil {
							panic(err)
						}
						w.Out.Free()
					}
					makespan = g.Clock.Now() - t0
					g.ReleaseJobCaches(1)
					in.Free()
				})
				return makespan
			}
			on := run(false)
			off := run(true)
			t.AddRow("on", secs(on), "1.00x")
			t.AddRow("off", secs(off), fmt.Sprintf("%.2fx", float64(off)/float64(on)))
			t.Note("disabling stealing costs %.2fx on a skewed queue", float64(off)/float64(on))
			return t
		},
	})

	register(&Experiment{
		ID:    "abl-blocksize",
		Title: "Ablation: block (memory page) size for the pipeline",
		Paper: "Section 5.1: blocks are memory pages; too small pays per-work overheads, too large starves the pipeline",
		Run: func() *Table {
			t := &Table{ID: "abl-blocksize", Title: "Block-size ablation", Paper: "per-work overhead vs pipeline granularity trade-off",
				Header: []string{"block nominal", "PointAdd total"}}
			for _, nom := range []int64{2 << 20, 16 << 20, 128 << 20, 1 << 30} {
				spec := paperSpec(1, 2, 50_000)
				spec.BlockNominal = nom
				g := spec.Build()
				var r workloads.Result
				g.Run(func() {
					r = workloads.PointAddGPU(g, workloads.PointAddParams{Points: 200e6, Iterations: 2, Parallelism: 2, Seed: 7})
				})
				t.AddRow(fmt.Sprintf("%dMiB", nom>>20), secs(r.Total))
			}
			return t
		},
	})
}

func coalesceOf(layout string) float64 {
	switch layout {
	case "SoA", "AoP":
		return 1.0
	default:
		return 0.45
	}
}
