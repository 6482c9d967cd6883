package workloads

import (
	"math"
	"testing"

	"gflink/internal/core"
	"gflink/internal/costmodel"
)

// feature is a set of opt-in switches that can act on a driver.
type feature uint8

const (
	// projects: the driver's kernel reads a strict subset of its SoA
	// columns, so projection ships fewer H2D bytes.
	projects feature = 1 << iota
	// reuses: the driver re-reads cached blocks that outgrow the cache
	// region, so the host tier promotes evicted blocks back.
	reuses
	// steals: the driver's default run steals queued work from another
	// GPU (Algorithm 5.2), so turning stealing off changes the schedule.
	steals
)

// featureCounts are the deployment counters that show a switch acted.
type featureCounts struct{ promotions, h2d, steals int64 }

// TestFeaturesNeverChangeOutputs holds DESIGN.md invariants 9 and 11:
// an opt-in switch may change when bytes move, never which bytes a
// workload computes. Every GPU driver runs on a default one-worker,
// two-GPU deployment whose working set outgrows the cache region, and
// once under each switch; every run's checksum must equal the default
// run's bit for bit. Where a switch can act on a driver it must: the
// host tier promotes at least once, projection ships fewer H2D bytes
// than the default run, and NoStealing runs a schedule in which the
// default run stole.
func TestFeaturesNeverChangeOutputs(t *testing.T) {
	drivers := []struct {
		name string
		div  int64
		acts feature
		run  func(*core.GFlink) Result
	}{
		{"kmeans", 12500, projects | reuses, func(g *core.GFlink) Result {
			return KMeansGPU(g, KMeansParams{Points: 210_000_000, MetaCols: 4, Iterations: 4, UseCache: true, Seed: 1})
		}},
		{"linreg", 12500, projects | reuses | steals, func(g *core.GFlink) Result {
			return LinRegGPU(g, LinRegParams{Samples: 210_000_000, D: 16, MetaCols: 4, Iterations: 4, UseCache: true, Seed: 3})
		}},
		// PointAdd re-reads no evicted block and WordCount reads each
		// block once, so the tier demotes for them but never promotes.
		{"pointadd", 20000, 0, func(g *core.GFlink) Result {
			return PointAddGPU(g, PointAddParams{Points: 400_000_000, Iterations: 4, UseCache: true, Seed: 4})
		}},
		{"spmv", 4000, reuses | steals, func(g *core.GFlink) Result {
			return SpMVGPU(g, SpMVParams{MatrixBytes: 16 << 30, NNZPerRow: 8, Iterations: 4, UseCache: true, Seed: 5})
		}},
		{"pagerank", 40000, reuses, func(g *core.GFlink) Result {
			return PageRankGPU(g, PageRankParams{Pages: 100_000_000, EdgesPerPage: 8, Iterations: 4, UseCache: true, Seed: 8})
		}},
		{"concomp", 40000, reuses, func(g *core.GFlink) Result {
			return ConnCompGPU(g, ConnCompParams{Pages: 100_000_000, EdgesPerPage: 8, Iterations: 4, UseCache: true, Seed: 9})
		}},
		{"wordcount", 40000, 0, func(g *core.GFlink) Result {
			return WordCountGPU(g, WordCountParams{Bytes: 4 << 30, Seed: 10})
		}},
	}
	promoted := func(_, got featureCounts) bool { return got.promotions > 0 }
	switches := []struct {
		name  string
		set   func(*Spec)
		needs feature
		acted func(def, got featureCounts) bool
	}{
		{"projection", func(s *Spec) { s.Projection = true }, projects,
			func(def, got featureCounts) bool { return got.h2d < def.h2d }},
		// The FIFO tier holds several blocks; the LRU tier is small
		// enough that pages spill to disk and reload.
		{"host-tier-fifo", func(s *Spec) { s.HostTierBytes = 2 << 30 }, reuses, promoted},
		{"host-tier-lru", func(s *Spec) { s.HostTierBytes, s.CachePolicy = 512<<20, core.EvictLRU }, reuses, promoted},
		{"stop-when-full", func(s *Spec) { s.CachePolicy = core.StopWhenFull }, 0, nil},
		{"round-robin", func(s *Spec) { s.Scheduler = core.RoundRobin }, 0, nil},
		{"no-stealing", func(s *Spec) { s.NoStealing = true }, steals,
			func(def, got featureCounts) bool { return def.steals > 0 && got.steals == 0 }},
		{"one-stream", func(s *Spec) { s.StreamsPerGPU = 1 }, 0, nil},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			run := func(set func(*Spec)) (Result, featureCounts) {
				spec := Spec{Workers: 1, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: d.div}
				set(&spec)
				g := spec.Build()
				var r Result
				g.Run(func() { r = d.run(g) })
				m := g.Obs.Metrics()
				return r, featureCounts{m.Total("mem.promotions"), m.Total("xfer.h2d.bytes"), m.Total("sched.steals")}
			}
			def, defCounts := run(func(*Spec) {})
			for _, sw := range switches {
				got, counts := run(sw.set)
				if math.Float64bits(got.Checksum) != math.Float64bits(def.Checksum) {
					t.Errorf("%s: checksum %v, default run %v", sw.name, got.Checksum, def.Checksum)
				}
				if d.acts&sw.needs != 0 && !sw.acted(defCounts, counts) {
					t.Errorf("%s did not act: counters %+v, default run %+v", sw.name, counts, defCounts)
				}
			}
		})
	}
}
