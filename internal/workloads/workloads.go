// Package workloads implements the paper's six evaluation benchmarks
// (Table 1: KMeans, PageRank, WordCount, ComponentConnect,
// LinearRegression, SpMV) plus the PointAdd microbenchmark of
// Algorithm 3.1 and Fig 8, each in two variants:
//
//   - a CPU driver on the baseline Flink engine (iterator execution
//     model, per-record overheads), and
//   - a GFlink driver using GDST blocks, GWork submission and the GPU
//     cache.
//
// Both variants compute over identical real (scaled-down) data so
// results are comparable; the shapes the paper reports emerge from the
// cost models, not from scripted numbers.
package workloads

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/vclock"
)

// Spec describes the deployment every workload runs on.
type Spec struct {
	Workers       int
	GPUsPerWorker int
	Profile       costmodel.GPUProfile
	ScaleDivisor  int64
	StreamsPerGPU int
	CacheBytes    int64
	CachePolicy   core.CachePolicy
	// HostTierBytes caps the per-device host paging tier (0 = disabled,
	// the paper-mode default).
	HostTierBytes int64
	Scheduler     core.SchedulerPolicy
	NoStealing    bool
	PageSize      int
	// BlockNominal bounds the nominal bytes per GDST block (0 = 128 MiB).
	BlockNominal int64
	// Projection enables SoA column projection on the transfer channel
	// (the abl-projection ablation). Off in paper mode.
	Projection bool
	// OnBuild, when set, sees every deployment Build constructs before
	// the workload runs — the hook the bench harness uses to collect
	// tracers and metric registries without threading observability
	// through every workload signature.
	OnBuild func(*core.GFlink)
}

// Build constructs the GFlink deployment (which embeds the baseline
// cluster used by the CPU drivers).
func (s Spec) Build() *core.GFlink {
	g := core.New(core.Config{
		Config: flink.Config{
			Workers:      s.Workers,
			Model:        costmodel.Default(),
			PageSize:     s.PageSize,
			ScaleDivisor: s.ScaleDivisor,
		},
		GPUsPerWorker:    s.GPUsPerWorker,
		GPUProfile:       s.Profile,
		StreamsPerGPU:    s.StreamsPerGPU,
		CacheBytesPerJob: s.CacheBytes,
		CachePolicy:      s.CachePolicy,
		HostTierBytes:    s.HostTierBytes,
		Scheduler:        s.Scheduler,
		DisableStealing:  s.NoStealing,
		MaxBlockNominal:  s.BlockNominal,
		EnableProjection: s.Projection,
	})
	if s.OnBuild != nil {
		s.OnBuild(g)
	}
	return g
}

// Result is a workload run's measurements.
type Result struct {
	// Total is the end-to-end virtual time of the measured job,
	// including submission and any HDFS I/O it performs.
	Total time.Duration
	// Iterations holds per-iteration times for iterative workloads.
	Iterations []time.Duration
	// MapPhase is the steady-state duration of the map/kernel phase
	// (last iteration), the quantity Fig 8b reports.
	MapPhase time.Duration
	// Checksum fingerprints the output for CPU/GPU equivalence checks.
	Checksum float64
}

// Speedup returns base.Total / r.Total.
func Speedup(base, r Result) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(base.Total) / float64(r.Total)
}

// mix is splitmix64: a deterministic 64-bit mixer used by every data
// generator, keyed by (seed, ordinal) so the CPU and GPU variants build
// bit-identical real datasets at any scale divisor.
func mix(seed, x uint64) uint64 {
	z := seed + gamma*(x+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gamma is splitmix64's golden gamma: mix's state for ordinal x is
// seed + gamma·(x+1), affine in x.
const gamma = 0x9e3779b97f4a7c15

// unit maps (seed, ordinal) to a float32 in [0, 1). h>>40 is below
// 2^24, so the int32 conversion is exact and cheaper than one from
// uint64.
func unit(seed, x uint64) float32 {
	return float32(int32(mix(seed, x)>>40)) / float32(1<<24)
}

// stageRead creates (if needed) an HDFS file of the given size and runs
// one reader task per partition, charging the disk and network time of
// streaming it in — the first-iteration I/O of Fig 7a/7b and the input
// scan of WordCount.
func stageRead(g *core.GFlink, j *flink.Job, name string, bytes int64, par int) {
	c := g.Cluster
	if par <= 0 {
		par = c.Parallelism()
	}
	f, err := c.FS.Open(name)
	if err != nil {
		f = c.FS.Create(name, bytes)
	}
	splits := c.FS.Splits(f, par)
	dummy := flink.Generate(j, "stage:"+name, int64(par), 1, par, func(int, int64) struct{} { return struct{}{} })
	flink.ProcessPartitions(dummy, "read:"+name, 1, func(p, worker int, in flink.Partition[struct{}]) ([]struct{}, int64) {
		c.FS.ReadSplit(worker, splits[p])
		return nil, splits[p].Length
	})
}

// writeResult writes bytes to HDFS through one sink task per worker,
// each writing its share (the final-iteration output of Fig 7a/7b).
func writeResult(g *core.GFlink, name string, bytes int64) {
	w := g.Cfg.Config.Workers
	share := bytes / int64(w)
	grp := vclock.NewGroup(g.Cluster.Clock)
	for i := 0; i < w; i++ {
		i := i
		grp.Go(fmt.Sprintf("sink[%d]", i), func() {
			g.Cluster.FS.Write(i, name, share)
		})
	}
	grp.Wait()
}

// runConcurrently launches each driver as its own virtual-time process
// and returns the per-driver durations plus the makespan (the
// multi-application experiments of Fig 8c/8d).
func RunConcurrently(clock *vclock.Clock, drivers []func()) (each []time.Duration, makespan time.Duration) {
	each = make([]time.Duration, len(drivers))
	start := clock.Now()
	grp := vclock.NewGroup(clock)
	for i, d := range drivers {
		i, d := i, d
		grp.Go(fmt.Sprintf("app-%d", i), func() {
			t0 := clock.Now()
			d()
			each[i] = clock.Now() - t0
		})
	}
	grp.Wait()
	return each, clock.Now() - start
}
