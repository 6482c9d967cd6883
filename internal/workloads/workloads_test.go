package workloads

import (
	"math"
	"slices"
	"testing"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
)

// testSpec is a small 2-worker deployment with aggressive scale-down.
func testSpec(div int64) Spec {
	return Spec{
		Workers:       2,
		GPUsPerWorker: 2,
		Profile:       costmodel.C2050,
		ScaleDivisor:  div,
	}
}

// close enough for float32 accumulation-order differences.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return false
	}
	return math.Abs(a-b)/den < tol
}

func TestKMeansCPUvsGPUEquivalence(t *testing.T) {
	g := testSpec(2000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := KMeansParams{Points: 2_000_000, K: 4, D: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 1}
		cpu = KMeansCPU(g, p)
		gpu = KMeansGPU(g, p)
	})
	if !relClose(cpu.Checksum, gpu.Checksum, 0.02) {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	if gpu.Total >= cpu.Total {
		t.Errorf("GPU KMeans (%v) not faster than CPU (%v)", gpu.Total, cpu.Total)
	}
	if len(cpu.Iterations) != 3 || len(gpu.Iterations) != 3 {
		t.Errorf("iteration counts: %d/%d", len(cpu.Iterations), len(gpu.Iterations))
	}
}

func TestKMeansCacheWarmsAfterFirstIteration(t *testing.T) {
	g := testSpec(2000).Build()
	var r Result
	g.Run(func() {
		r = KMeansGPU(g, KMeansParams{Points: 4_000_000, K: 4, D: 8, Iterations: 4, Parallelism: 8, UseCache: true, Seed: 2})
	})
	// Iteration 1 pays the H2D of every point block; later iterations
	// hit the cache and must be faster.
	if r.Iterations[1] >= r.Iterations[0] {
		t.Errorf("iter1 (%v) not faster than iter0 (%v) despite cache", r.Iterations[1], r.Iterations[0])
	}
}

func TestLinRegCPUvsGPUEquivalence(t *testing.T) {
	g := testSpec(2000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := LinRegParams{Samples: 2_000_000, D: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 3}
		cpu = LinRegCPU(g, p)
		gpu = LinRegGPU(g, p)
	})
	if !relClose(cpu.Checksum, gpu.Checksum, 0.02) {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	if gpu.Total >= cpu.Total {
		t.Errorf("GPU LinReg (%v) not faster than CPU (%v)", gpu.Total, cpu.Total)
	}
}

func TestPointAddCPUvsGPUEquivalence(t *testing.T) {
	g := testSpec(1000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := PointAddParams{Points: 1_000_000, Iterations: 2, Parallelism: 8, Seed: 4}
		cpu = PointAddCPU(g, p)
		gpu = PointAddGPU(g, p)
	})
	if !relClose(cpu.Checksum, gpu.Checksum, 1e-6) {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
}

func TestSpMVCPUvsGPUExactEquivalence(t *testing.T) {
	g := testSpec(1000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := SpMVParams{MatrixBytes: 256 << 20, NNZPerRow: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 5}
		cpu = SpMVCPU(g, p)
		gpu = SpMVGPU(g, p)
	})
	// Identical operation order: results must match exactly.
	if cpu.Checksum != gpu.Checksum {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	if gpu.Total >= cpu.Total {
		t.Errorf("GPU SpMV (%v) not faster than CPU (%v)", gpu.Total, cpu.Total)
	}
}

func TestSpMVCacheEffect(t *testing.T) {
	run := func(cache bool) Result {
		// Single machine, as in the paper's Fig 8a setup: no network, so
		// the matrix reload dominates the uncached iterations.
		g := Spec{Workers: 1, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 2000}.Build()
		var r Result
		g.Run(func() {
			r = SpMVGPU(g, SpMVParams{MatrixBytes: 1 << 30, NNZPerRow: 8, Iterations: 6, Parallelism: 4, UseCache: cache, Seed: 6})
		})
		return r
	}
	with, without := run(true), run(false)
	if with.Checksum != without.Checksum {
		t.Errorf("cache changed results: %v vs %v", with.Checksum, without.Checksum)
	}
	if float64(with.Total) > 0.8*float64(without.Total) {
		t.Errorf("cache gained too little: with %v vs without %v", with.Total, without.Total)
	}
	// Steady-state iterations show the gap most clearly (Fig 8a).
	if with.Iterations[3] >= without.Iterations[3] {
		t.Errorf("cached steady iteration (%v) not faster than uncached (%v)", with.Iterations[3], without.Iterations[3])
	}
}

func TestSpMVFirstIterationSlower(t *testing.T) {
	g := testSpec(1000).Build()
	var r Result
	g.Run(func() {
		r = SpMVGPU(g, SpMVParams{MatrixBytes: 512 << 20, NNZPerRow: 8, Iterations: 4, Parallelism: 8, UseCache: true, FromHDFS: true, WriteResult: true, Seed: 7})
	})
	// Fig 7b: iteration 0 pays HDFS + matrix H2D; steady iterations are
	// much cheaper.
	if r.Iterations[0] < 2*r.Iterations[2] {
		t.Errorf("first iteration %v not >> steady %v", r.Iterations[0], r.Iterations[2])
	}
}

func TestPageRankCPUvsGPUExactEquivalence(t *testing.T) {
	g := testSpec(2000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := PageRankParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 8}
		cpu = PageRankCPU(g, p)
		gpu = PageRankGPU(g, p)
	})
	if cpu.Checksum != gpu.Checksum {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	if gpu.Total >= cpu.Total {
		t.Errorf("GPU PageRank (%v) not faster than CPU (%v)", gpu.Total, cpu.Total)
	}
}

func TestConnCompCPUvsGPUExactEquivalence(t *testing.T) {
	g := testSpec(2000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := ConnCompParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 9}
		cpu = ConnCompCPU(g, p)
		gpu = ConnCompGPU(g, p)
	})
	if cpu.Checksum != gpu.Checksum {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	if gpu.Total >= cpu.Total {
		t.Errorf("GPU ConnComp (%v) not faster than CPU (%v)", gpu.Total, cpu.Total)
	}
}

func TestWordCountCPUvsGPUExactEquivalence(t *testing.T) {
	g := testSpec(4000).Build()
	var cpu, gpu Result
	g.Run(func() {
		p := WordCountParams{Bytes: 512 << 20, Parallelism: 8, Seed: 10}
		cpu = WordCountCPU(g, p)
		gpu = WordCountGPU(g, p)
	})
	if cpu.Checksum != gpu.Checksum {
		t.Errorf("checksums diverge: cpu %v gpu %v", cpu.Checksum, gpu.Checksum)
	}
	// WordCount is I/O bound: GPU helps, but only modestly (Fig 5c).
	sp := Speedup(cpu, gpu)
	if sp < 1.0 || sp > 2.0 {
		t.Errorf("WordCount speedup %.2f outside I/O-bound band [1.0, 2.0]", sp)
	}
}

func TestIterativeSpeedupBeatsWordCount(t *testing.T) {
	// The paper's headline shape: iterative compute-heavy workloads gain
	// far more than the one-pass I/O-bound one.
	g1 := testSpec(20000).Build()
	var kcpu, kgpu Result
	g1.Run(func() {
		p := KMeansParams{Points: 40_000_000, K: 8, D: 16, Iterations: 5, Parallelism: 8, UseCache: true, Seed: 11}
		kcpu = KMeansCPU(g1, p)
		kgpu = KMeansGPU(g1, p)
	})
	g2 := testSpec(4000).Build()
	var wcpu, wgpu Result
	g2.Run(func() {
		p := WordCountParams{Bytes: 512 << 20, Parallelism: 8, Seed: 11}
		wcpu = WordCountCPU(g2, p)
		wgpu = WordCountGPU(g2, p)
	})
	ks, ws := Speedup(kcpu, kgpu), Speedup(wcpu, wgpu)
	if ks <= ws {
		t.Errorf("KMeans speedup (%.2f) should exceed WordCount's (%.2f)", ks, ws)
	}
	if ks < 2.5 {
		t.Errorf("KMeans speedup %.2f implausibly low (want >= 2.5 at this scale)", ks)
	}
}

func TestRunConcurrently(t *testing.T) {
	g := testSpec(2000).Build()
	var each []time.Duration
	var makespan time.Duration
	g.Run(func() {
		each, makespan = RunConcurrently(g.Clock, []func(){
			func() { PointAddGPU(g, PointAddParams{Points: 1_000_000, Parallelism: 4, Seed: 12}) },
			func() { PointAddGPU(g, PointAddParams{Points: 1_000_000, Parallelism: 4, Seed: 13}) },
		})
	})
	if len(each) != 2 || each[0] <= 0 || each[1] <= 0 {
		t.Fatalf("durations: %v", each)
	}
	if makespan < each[0] && makespan < each[1] {
		t.Errorf("makespan %v below both app times %v", makespan, each)
	}
}

func TestDeterministicWorkloads(t *testing.T) {
	run := func() (float64, time.Duration) {
		g := testSpec(2000).Build()
		var r Result
		g.Run(func() {
			r = KMeansGPU(g, KMeansParams{Points: 1_000_000, K: 4, D: 8, Iterations: 2, Parallelism: 8, UseCache: true, Seed: 14})
		})
		return r.Checksum, r.Total
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("nondeterminism: (%v,%v) vs (%v,%v)", c1, t1, c2, t2)
	}
}

// TestWorkloadsReturnEveryHostPage is the runtime half of invariant 4
// (DESIGN.md): after each GPU workload, every TaskManager's off-heap
// pool has no page in use or pinned and has seen one Free per
// Allocate. poolsafe proves the same contract statically.
func TestWorkloadsReturnEveryHostPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		div  int64
		run  func(*core.GFlink)
	}{
		{"kmeans", 2000, func(g *core.GFlink) {
			KMeansGPU(g, KMeansParams{Points: 2_000_000, K: 4, D: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 1})
		}},
		{"linreg", 2000, func(g *core.GFlink) {
			LinRegGPU(g, LinRegParams{Samples: 2_000_000, D: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 3})
		}},
		{"pointadd", 1000, func(g *core.GFlink) {
			PointAddGPU(g, PointAddParams{Points: 1_000_000, Iterations: 2, Parallelism: 8, Seed: 4})
		}},
		{"spmv", 1000, func(g *core.GFlink) {
			SpMVGPU(g, SpMVParams{MatrixBytes: 256 << 20, NNZPerRow: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 5})
		}},
		{"pagerank", 2000, func(g *core.GFlink) {
			PageRankGPU(g, PageRankParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 8})
		}},
		{"concomp", 2000, func(g *core.GFlink) {
			ConnCompGPU(g, ConnCompParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 9})
		}},
		{"wordcount", 4000, func(g *core.GFlink) {
			WordCountGPU(g, WordCountParams{Bytes: 512 << 20, Parallelism: 8, Seed: 10})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testSpec(tc.div).Build()
			g.Run(func() { tc.run(g) })
			for w, tm := range g.Cluster.TaskManagers {
				st := tm.Pool.Stats()
				if st.Allocs == 0 {
					t.Errorf("worker %d pool saw no allocation; the balance check is vacuous", w)
				}
				if st.InUsePages != 0 || st.PinnedPages != 0 || st.Allocs != st.Frees {
					t.Errorf("worker %d pool: %d pages in use, %d pinned, %d allocs vs %d frees",
						w, st.InUsePages, st.PinnedPages, st.Allocs, st.Frees)
				}
			}
		})
	}
}

// poolPages returns the InUsePages of every TaskManager's page pool.
func poolPages(g *core.GFlink) []int {
	pages := make([]int, len(g.Cluster.TaskManagers))
	for w, tm := range g.Cluster.TaskManagers {
		pages[w] = tm.Pool.Stats().InUsePages
	}
	return pages
}

// TestSpMVFreesEveryBlock runs the GPU SpMV on a matrix whose
// partitions span several CSR blocks each (1 GiB nominal per partition,
// 256 MiB per block) and requires every pool's in-use pages back at
// their value before the run: the cleanup frees every block, not only
// each partition's first.
func TestSpMVFreesEveryBlock(t *testing.T) {
	g := testSpec(2000).Build()
	before := poolPages(g)
	g.Run(func() {
		SpMVGPU(g, SpMVParams{MatrixBytes: 4 << 30, NNZPerRow: 8, Iterations: 2, Parallelism: 4, UseCache: true, Seed: 5})
	})
	if after := poolPages(g); !slices.Equal(after, before) {
		t.Errorf("in-use pages per worker pool: %v after the run, %v before", after, before)
	}
}
