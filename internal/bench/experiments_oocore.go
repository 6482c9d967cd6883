package bench

import (
	"fmt"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
)

// The out-of-core ablation shrinks the device to a 256 MiB profile so
// working sets of a few hundred MiB overflow the cache region, the
// host paging tier and finally the simulated spill disk. All sizes are
// nominal (paper-scale) bytes; the real buffers stay tiny.
const (
	oocoreDevBytes   = 256 << 20 // device memory of the shrunken profile
	oocoreCacheBytes = 192 << 20 // cache-region capacity ("device memory" of the sweep)
	oocoreHostTier   = 192 << 20 // host paging tier capacity
	oocoreHotNominal = 32 << 20  // the reuse-heavy sweep's hot (centroids-like) block
	oocoreColdNom    = 16 << 20  // one cold (points/matrix) block
	oocoreSweeps     = 3         // full passes over the cold working set
)

// oocoreFactors are the working-set sizes as multiples of the cache
// capacity: resident, 2x (the LRU-vs-FIFO check point), and the deep
// out-of-core points where the host tier itself overflows to disk.
var oocoreFactors = []int{1, 2, 5, 10}

// oocorePolicies is the sweep's policy axis, in table-column order.
var oocorePolicies = []core.CachePolicy{
	core.EvictFIFO, core.StopWhenFull, core.EvictLRU,
}

// oocoreCell is one (workload, factor, policy) run.
type oocoreCell struct {
	makespan   time.Duration
	demotions  int64
	promotions int64
	spills     int64
	reloads    int64
}

// oocoreRun drives one sweep on a fresh single-GPU deployment with the
// host paging tier armed. kind "kmeans" is the reuse-heavy pattern: a
// hot broadcast-like block rides every work while cold blocks cycle,
// so recency-aware policies keep the hot block resident and FIFO ages
// it out. kind "spmv" is a pure cyclic scan over cold blocks — the
// pattern where FIFO and LRU behave alike — included as the contrast.
func oocoreRun(kind string, factor int, policy core.CachePolicy, onBuild func(*core.GFlink)) oocoreCell {
	prof := costmodel.C2050
	prof.Name = "C2050-oocore"
	prof.MemBytes = oocoreDevBytes

	spec := paperSpec(1, 1, 1)
	spec.Profile = prof
	spec.CacheBytes = oocoreCacheBytes
	spec.CachePolicy = policy
	spec.HostTierBytes = oocoreHostTier
	spec.StreamsPerGPU = 1
	spec.OnBuild = onBuild
	g := spec.Build()

	coldTotal := int64(factor) * oocoreCacheBytes
	if kind == "kmeans" {
		coldTotal -= oocoreHotNominal
	}
	numCold := int(coldTotal / oocoreColdNom)

	var cell oocoreCell
	g.Run(func() {
		pool := g.Cluster.TaskManagers[0].Pool
		in := pool.MustAllocate(512)
		hotKey := core.CacheKey{JobID: 1, Partition: 0, Block: 1 << 20}
		t0 := g.Clock.Now()
		for sweep := 0; sweep < oocoreSweeps; sweep++ {
			for b := 0; b < numCold; b++ {
				ins := []core.Input{{Buf: in, Nominal: oocoreColdNom, Cache: true,
					Key: core.CacheKey{JobID: 1, Partition: 0, Block: b}}}
				if kind == "kmeans" {
					ins = append(ins, core.Input{Buf: in, Nominal: oocoreHotNominal, Cache: true, Key: hotKey})
				}
				w := &core.GWork{
					ExecuteName: "bench.copy", Size: 8, Nominal: 8 << 20,
					BlockSize: 256, GridSize: 1,
					In:  ins,
					Out: pool.MustAllocate(256), OutNominal: 8 << 20, JobID: 1,
				}
				g.Manager(0).Streams.Submit(w)
				if err := w.Wait(); err != nil {
					panic(fmt.Sprintf("bench: abl-oocore %s %dx %v: %v", kind, factor, policy, err))
				}
				w.Out.Free()
			}
		}
		cell.makespan = g.Clock.Now() - t0
		g.ReleaseJobCaches(1)
		in.Free()
	})
	m := g.Obs.Metrics()
	cell.demotions = m.Get("mem.demotions.gpu0")
	cell.promotions = m.Get("mem.promotions.gpu0")
	cell.spills = m.Get("mem.spills.gpu0")
	cell.reloads = m.Get("mem.reloads.gpu0")
	return cell
}

func init() {
	register(&Experiment{
		ID:    "abl-oocore",
		Title: "Ablation: out-of-core tiered memory — eviction policy x working-set factor",
		Paper: "Section 4.2.2 extended: with a host paging tier and spill disk, jobs larger than device memory still run; recency-aware eviction keeps reused blocks resident where FIFO thrashes",
		Run: func() *Table {
			t := &Table{
				ID:    "abl-oocore",
				Title: "Out-of-core tiered memory ablation",
				Paper: "LRU keeps the hot block under reuse; spills engage at 5x+",
				Header: []string{"workload", "working set",
					"fifo", "stop-when-full", "lru"},
			}
			// The 24 (workload, factor, policy) cells are independent
			// deployments, so the sweep fans out across OS threads; the
			// declared order below is the table's row-major order.
			type point struct {
				kind   string
				factor int
				pol    core.CachePolicy
			}
			var pts []point
			for _, kind := range []string{"kmeans", "spmv"} {
				for _, f := range oocoreFactors {
					for _, pol := range oocorePolicies {
						pts = append(pts, point{kind, f, pol})
					}
				}
			}
			run := RunPoints(len(pts), func(i int, onBuild func(*core.GFlink)) oocoreCell {
				return oocoreRun(pts[i].kind, pts[i].factor, pts[i].pol, onBuild)
			})
			var spillsDeep int64
			cells := map[string]map[int]map[string]oocoreCell{}
			i := 0
			for _, kind := range []string{"kmeans", "spmv"} {
				cells[kind] = map[int]map[string]oocoreCell{}
				for _, f := range oocoreFactors {
					row := []string{kind, fmt.Sprintf("%dx", f)}
					cells[kind][f] = map[string]oocoreCell{}
					for _, pol := range oocorePolicies {
						c := run[i]
						i++
						cells[kind][f][pol.String()] = c
						row = append(row, secs(c.makespan))
						if f >= 5 {
							spillsDeep += c.spills
						}
					}
					t.AddRow(row...)
				}
			}
			km2 := cells["kmeans"][2]
			sp2 := cells["spmv"][2]
			lruFifoKM := float64(km2["lru"].makespan) / float64(km2["fifo"].makespan)
			lruFifoSP := float64(sp2["lru"].makespan) / float64(sp2["fifo"].makespan)
			t.Note("kmeans 2x: lru/fifo makespan = %.4fx", lruFifoKM)
			t.Note("spmv 2x (cyclic, no reuse skew): lru/fifo makespan = %.4fx", lruFifoSP)
			t.Note("kmeans 2x fifo tier traffic: %d demotions, %d promotions, %d reloads",
				km2["fifo"].demotions, km2["fifo"].promotions, km2["fifo"].reloads)
			t.Note("mem.spills at 5x+: %d", spillsDeep)
			return t
		},
		Check: func(t *Table) error {
			if len(t.Rows) == 0 {
				return fmt.Errorf("abl-oocore: empty table")
			}
			var lruOverFifo float64
			var spills int64
			foundRatio, foundSpills := false, false
			for _, n := range t.Notes {
				if _, err := fmt.Sscanf(n, "kmeans 2x: lru/fifo makespan = %fx", &lruOverFifo); err == nil {
					foundRatio = true
					continue
				}
				if _, err := fmt.Sscanf(n, "mem.spills at 5x+: %d", &spills); err == nil {
					foundSpills = true
				}
			}
			if !foundRatio || !foundSpills {
				return fmt.Errorf("abl-oocore: missing pinned notes (ratio %v, spills %v)", foundRatio, foundSpills)
			}
			if lruOverFifo >= 1 {
				return fmt.Errorf("abl-oocore: LRU (%.4fx of FIFO) does not strictly beat FIFO at 2x device memory on the reuse-heavy sweep", lruOverFifo)
			}
			if spills <= 0 {
				return fmt.Errorf("abl-oocore: no spill-disk writes at 5x+ working sets — the host tier never overflowed")
			}
			return nil
		},
	})
}
