package core

import (
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/obs"
)

// Config extends the baseline cluster configuration with the GPU-side
// parameters GFlink adds.
type Config struct {
	flink.Config

	// GPUsPerWorker is the device count per slave node (the paper's
	// testbed uses 2).
	GPUsPerWorker int
	// GPUProfile selects the device generation; zero value means Tesla
	// C2050, the cluster experiments' GPU.
	GPUProfile costmodel.GPUProfile
	// StreamsPerGPU sizes each GStream Pool bulk (default 4).
	StreamsPerGPU int
	// CacheBytesPerJob is the per-job, per-device cache-region capacity
	// (the user-defined parameter of Section 4.2.2). 0 means 60% of
	// device memory.
	CacheBytesPerJob int64
	// CachePolicy selects FIFO eviction (default), StopWhenFull, or the
	// tiered subsystem's EvictLRU.
	CachePolicy CachePolicy
	// HostTierBytes caps each device's host paging tier in nominal
	// bytes. 0 disables the tier (paper mode): evicted cache entries are
	// freed instead of demoted.
	HostTierBytes int64
	// Scheduler selects Algorithm 5.1 (default) or the RoundRobin
	// ablation.
	Scheduler SchedulerPolicy
	// DisableStealing turns off Algorithm 5.2 (ablation).
	DisableStealing bool
	// MaxBlockNominal bounds the paper-scale bytes one GDST block
	// represents (the effective memory-page granularity of the
	// three-stage pipeline). 0 means 128 MiB.
	MaxBlockNominal int64
	// EnableProjection turns on SoA column projection: GWork inputs
	// built from GDST blocks ship only the columns the kernel's
	// registered field-use declaration reads. Off by default (the
	// paper-mode figures ship whole blocks).
	EnableProjection bool
}

// GFlink is a cluster with one GPUManager per worker — the system of
// Fig. 1a. It embeds the baseline cluster, so every CPU-path operator
// keeps working unchanged.
type GFlink struct {
	*flink.Cluster
	Cfg      Config
	Managers []*GPUManager
	// Obs collects the deployment's spans and counters. Observability
	// only reads the virtual clock — it never charges time — so
	// enabling it changes no simulated result.
	Obs *obs.Observability
}

// GPUManager manages one worker's GPU computing resources (Fig. 1b):
// the devices, the communication layer (CUDAWrapper/CUDAStub), the
// GMemoryManagers and the GStreamManager.
type GPUManager struct {
	Worker  int
	Wrapper *CUDAWrapper
	Devices []*gpu.Device
	Streams *GStreamManager
}

// New builds a GFlink deployment of GPUsPerWorker identical
// GPUProfile devices per worker.
func New(cfg Config) *GFlink {
	if cfg.GPUsPerWorker <= 0 {
		cfg.GPUsPerWorker = 1
	}
	if cfg.GPUProfile.Name == "" {
		cfg.GPUProfile = costmodel.C2050
	}
	if cfg.CacheBytesPerJob <= 0 {
		cfg.CacheBytesPerJob = cfg.GPUProfile.MemBytes * 6 / 10
	}
	// flink.NewCluster deploys at least one worker.
	profiles := make([][]costmodel.GPUProfile, max(cfg.Workers, 1))
	for w := range profiles {
		profiles[w] = make([]costmodel.GPUProfile, cfg.GPUsPerWorker)
		for k := range profiles[w] {
			profiles[w][k] = cfg.GPUProfile
		}
	}
	return NewHetero(cfg, profiles)
}

// NewHetero builds a GFlink deployment whose workers carry the given
// per-device profiles (for the heterogeneous-GPU experiments of
// Fig 8b). profiles[w][k] is worker w's k-th device.
func NewHetero(cfg Config, profiles [][]costmodel.GPUProfile) *GFlink {
	cluster := flink.NewCluster(cfg.Config)
	cfg.Config = cluster.Cfg
	g := &GFlink{Cluster: cluster, Cfg: cfg, Obs: obs.New()}
	devID := 0
	for w := 0; w < cfg.Config.Workers; w++ {
		wrapper := NewCUDAWrapper(cluster.Clock, cfg.Config.Model)
		mgr := &GPUManager{Worker: w, Wrapper: wrapper}
		var mems []*GMemoryManager
		for _, prof := range profiles[w] {
			cap := cfg.CacheBytesPerJob
			if cap <= 0 {
				cap = prof.MemBytes * 6 / 10
			}
			dev := gpu.NewDevice(cluster.Clock, devID, w, prof, cfg.Config.Model.PCIe)
			devID++
			mgr.Devices = append(mgr.Devices, dev)
			mems = append(mems, NewMemoryManager(dev, wrapper, cap, memOptions(cfg)...))
		}
		mgr.Streams = NewStreamManager(StreamConfig{
			Clock:         cluster.Clock,
			Wrapper:       wrapper,
			Memories:      mems,
			StreamsPerGPU: cfg.StreamsPerGPU,
			Policy:        cfg.Scheduler,
			NoStealing:    cfg.DisableStealing,
			Tracer:        g.Obs.Tracer(),
			Metrics:       g.Obs.Metrics(),
		})
		g.Managers = append(g.Managers, mgr)
	}
	return g
}

// memOptions translates the deployment config into memory-manager
// options.
func memOptions(cfg Config) []MemOption {
	opts := []MemOption{WithPolicy(cfg.CachePolicy)}
	if cfg.HostTierBytes > 0 {
		opts = append(opts, WithHostTierBytes(cfg.HostTierBytes))
	}
	return opts
}

// Manager returns worker w's GPUManager.
func (g *GFlink) Manager(w int) *GPUManager { return g.Managers[w] }

// Close shuts every stream worker and device down. It must be called
// inside the simulation, after all submitted work has completed.
func (g *GFlink) Close() {
	for _, m := range g.Managers {
		m.Streams.Close()
	}
	for _, m := range g.Managers {
		for _, d := range m.Devices {
			d.Close()
		}
	}
}

// Run executes driver as the simulation root and closes the deployment
// when it returns; it yields the total virtual time.
func (g *GFlink) Run(driver func()) time.Duration {
	return g.Clock.Run(func() {
		defer g.Close()
		driver()
	})
}

// ReleaseJobCaches frees the job's cache regions on every device of
// every worker (called when a job finishes).
func (g *GFlink) ReleaseJobCaches(jobID int) {
	for _, m := range g.Managers {
		for i := 0; i < m.Streams.Devices(); i++ {
			m.Streams.Memory(i).ReleaseJob(jobID)
		}
	}
}
