package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gflink/internal/core"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// KMeansParams configures the KMeans benchmark (HiBench-style: dense
// float points, fixed iteration count).
type KMeansParams struct {
	// Points is the nominal point count (the paper sweeps 150-270
	// million).
	Points int64
	// K and D are the cluster and dimension counts (HiBench defaults:
	// k=10, d=20).
	K, D int
	// Iterations is the fixed Lloyd iteration count.
	Iterations int
	// Parallelism is the partition count (0 = cluster default).
	Parallelism int
	// UseCache enables the GPU cache for the point blocks (GPU variant
	// only).
	UseCache bool
	// FromHDFS reads the input in the first iteration and WriteResult
	// writes the centroids in the last, as Fig 7a's setup does.
	FromHDFS    bool
	WriteResult bool
	// MetaCols widens each point with unread trailing float32 metadata
	// columns (record ids, tags). The assign kernel only reads the first
	// D coordinate columns, so with column projection enabled these
	// columns never cross PCIe — the abl-projection setup.
	MetaCols int
	// Seed keys the generators.
	Seed uint64
}

func (p *KMeansParams) defaults() {
	if p.K == 0 {
		p.K = 10
	}
	if p.D == 0 {
		p.D = 20
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// pointBytes is the on-wire record size (coordinates plus metadata).
func (p KMeansParams) pointBytes() int { return 4 * (p.D + p.MetaCols) }

// kmeansGen generates the KMeans points: nominal point ord belongs to
// one of K true centers, drawn once per point, and coordinate j sits at
// that center's base value plus per-coordinate noise, so the algorithm
// has real structure. The K×D base table is drawn once per job.
type kmeansGen struct {
	seed       uint64
	k, d, meta int
	// byK reduces a point's draw to its center index.
	byK reciprocal
	// base[j*k+c] is center c's base value for coordinate j, so one
	// column's K values are contiguous.
	base []float32
}

func newKMeansGen(p KMeansParams) *kmeansGen {
	g := &kmeansGen{seed: p.Seed, k: p.K, d: p.D, meta: p.MetaCols, byK: newReciprocal(p.K), base: make([]float32, p.K*p.D)}
	for c := 0; c < p.K; c++ {
		for j := 0; j < p.D; j++ {
			g.base[j*p.K+c] = float32(unit(p.Seed+uint64(c)*977+uint64(j)*31, 0) * 100)
		}
	}
	return g
}

// center returns the center of nominal point ord: its draw mod K.
func (g *kmeansGen) center(ord int64) int { return int(g.byK.mod(mix(g.seed, uint64(ord)))) }

// reciprocal reduces x mod k without a 64-bit DIV. With m =
// ⌊(2⁶⁴−1)/k⌋, 2⁶⁴ − k·m lies in [1, k], so x/k − x·m/2⁶⁴ lies in
// [0, 1): the high word of x·m is ⌊x/k⌋ or one less, and one
// conditional subtraction corrects the remainder.
type reciprocal struct{ k, m uint64 }

func newReciprocal(k int) reciprocal { return reciprocal{uint64(k), ^uint64(0) / uint64(k)} }

func (r reciprocal) mod(x uint64) uint64 {
	q, _ := bits.Mul64(x, r.m)
	x -= q * r.k
	if x >= r.k {
		x -= r.k
	}
	return x
}

// coord returns coordinate j of nominal point ord, whose center is c.
func (g *kmeansGen) coord(c int, ord int64, j int) float32 {
	return g.base[j*g.k+c] + float32(unit(g.seed+123457, uint64(ord)*29+uint64(j))*4-2)
}

// point writes the D coordinates of nominal point ord into dst.
func (g *kmeansGen) point(ord int64, dst []float32) {
	c := g.center(ord)
	for j := range dst {
		dst[j] = g.coord(c, ord, j)
	}
}

// fillChunk is how many elements a column fill handles per pass: their
// centers stay on the stack while each column is written.
const fillChunk = 128

// fill writes one SoA block of points column by column (the GDST fill):
// element i is nominal point ord0 + i*step, followed by the MetaCols
// metadata columns. Within a column, element i's noise draws ordinal
// x + i·29·step, which fillCoords steps through.
func (g *kmeansGen) fill(_ int, v gstruct.View, ord0, step int64) {
	n := v.Len()
	var centers [fillChunk]int32
	for lo := 0; lo < n; lo += fillChunk {
		hi := min(lo+fillChunk, n)
		for i := lo; i < hi; i++ {
			centers[i-lo] = int32(g.center(ord0 + int64(i)*step))
		}
		x := uint64(ord0+int64(lo)*step) * 29
		for j := 0; j < g.d; j++ {
			col := v.Column(j, gstruct.Float32)[4*lo : 4*hi]
			fillCoords(col, centers[:hi-lo], g.base[j*g.k:(j+1)*g.k], g.seed+123457, x+uint64(j), uint64(step)*29)
		}
	}
	for j := g.d; j < g.d+g.meta; j++ {
		col := v.Column(j, gstruct.Float32)
		for i := 0; i < n; i++ {
			putRawF32(col, i, unit(g.seed+777, uint64(ord0+int64(i)*step)*53+uint64(j)))
		}
	}
}

// fillCoordsGo is fillCoords' portable body, and its tail on amd64:
// col[i] = base[centers[i]] + (u·4 − 2) with u = unit(seed, x + i·dx),
// the base added last and nothing fused.
func fillCoordsGo(col []byte, centers []int32, base []float32, seed, x, dx uint64) {
	for i, c := range centers {
		putRawF32(col, i, base[c]+float32(unit(seed, x)*4-2))
		x += dx
	}
}

// initialCentroids derives the deterministic starting centroids.
func (g *kmeansGen) initialCentroids() []float32 {
	cents := make([]float32, g.k*g.d)
	for c := 0; c < g.k; c++ {
		g.point(int64(c)*7919, cents[c*g.d:(c+1)*g.d])
	}
	return cents
}

// centroidChecksum fingerprints a centroid set.
func centroidChecksum(cents []float32) float64 {
	var s float64
	for i, v := range cents {
		s += float64(v) * float64(i+1)
	}
	return s
}

// KMeans runs Lloyd iterations through the plan layer as one pipeline.
// The source, the per-iteration assign stage and the cleanup are Either
// nodes, so the mode places all three together: the CPU body keeps the points as engine
// partitions and assigns through the iterator model, the GPU body
// builds SoA GDST blocks and launches the fused assign-reduce kernel.
// The two modes reproduce the former KMeansCPU/KMeansGPU drivers
// exactly.
func KMeans(g *core.GFlink, p KMeansParams, opts plan.Options) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}
	gen := newKMeansGen(p)
	cents := gen.initialCentroids()
	perRec := kernels.KMeansWork(p.K, p.D)
	workers := g.Cfg.Config.Workers

	// Branch-local state: the CPU placement materializes points as an
	// engine dataset, the GPU placement as SoA GDST blocks.
	var points *flink.Dataset[[]float32]
	var ds core.GDST
	var partialSchema *gstruct.Schema

	gr := plan.NewGraph(g, "kmeans-"+opts.Mode.String(), opts)
	plan.EitherDo(gr, "points",
		func(ctx *plan.Ctx) {
			points = flink.Generate(ctx.Job, "points", p.Points, p.pointBytes(), p.Parallelism, func(part int, ord int64) []float32 {
				pt := make([]float32, p.D)
				gen.point(ord, pt)
				return pt
			})
		},
		func(ctx *plan.Ctx) {
			// MetaCols > 0 widens the schema with trailing metadata columns
			// the assign kernel never reads.
			schema := kernels.PointSchema(p.D + p.MetaCols)
			ds = core.NewGDST(g, ctx.Job, schema, gstruct.SoA, p.Points, p.Parallelism, gen.fill)
			partialSchema = gstruct.MustNew(fmt.Sprintf("KPartial%dx%d", p.K, p.D), 4,
				gstruct.Field{Name: "sums", Kind: gstruct.Float32, Len: p.K * (p.D + 1)})
		})
	iters := plan.Iterate(gr, "lloyd", p.Iterations, func(it int, sub *plan.Graph) {
		plan.Do(sub, "stage-in", func(ctx *plan.Ctx) {
			if it == 0 && p.FromHDFS {
				// Fig 7a: the first iteration reads the points from HDFS.
				stageRead(g, ctx.Job, "kmeans-input", p.Points*int64(p.pointBytes()), p.Parallelism)
			}
		})
		plan.EitherDo(sub, "assign",
			func(ctx *plan.Ctx) {
				j := ctx.Job
				j.Broadcast(int64(p.K * p.D * 4))
				centsNow := cents
				tm0 := c.Clock.Now()
				// Partial sums are one fixed-size record per partition at any
				// scale, so nominal output is 1 (not the input's nominal count).
				partials := flink.ProcessPartitions(points, "assign", 4*p.K*(p.D+1), func(pi, worker int, in flink.Partition[[]float32]) ([][]float32, int64) {
					j.ChargeCompute(in.Nominal, perRec)
					return [][]float32{kernels.CPUKMeansAssign(in.Items, centsNow, p.K, p.D)}, 1
				})
				merged := make([]float32, p.K*(p.D+1))
				for _, part := range flink.Collect(partials) {
					kernels.MergePartials(merged, part)
				}
				res.MapPhase = c.Clock.Now() - tm0
				cents = kernels.UpdateCentroids(merged, cents, p.K, p.D)
			},
			func(ctx *plan.Ctx) {
				j := ctx.Job
				// Centroids are consumed by the kernel as a flat c*d+j float
				// array; write them raw into an off-heap buffer and broadcast.
				centBuf := c.TaskManagers[0].Pool.MustAllocate(4 * p.K * p.D)
				for i, v := range cents {
					putRawF32(centBuf.Bytes(), i, v)
				}
				perWorker := core.BroadcastBuffer(g, j, centBuf, int64(4*p.K*p.D))
				// Every block on a worker reads that worker's copy, so the
				// extra-input slices are built once per worker, not per block.
				centIn := make([][]core.Input, workers)
				for w, buf := range perWorker {
					centIn[w] = []core.Input{{Buf: buf, Nominal: int64(4 * p.K * p.D)}}
				}
				tm0 := c.Clock.Now()
				partials := core.GPUReducePartition(g, ds, core.GPUMapSpec{
					Name:       "kmeansAssign",
					Kernel:     kernels.KMeansAssignKernel,
					OutSchema:  partialSchema,
					OutLayout:  gstruct.AoS,
					CacheInput: p.UseCache,
					Args:       []int64{int64(p.K), int64(p.D)},
					Extra:      func(b *core.Block) []core.Input { return centIn[b.Partition%workers] },
				}, 1)
				merged := make([]float32, p.K*(p.D+1))
				for _, blk := range core.CollectBlocks(partials) {
					col := blk.View().Column(0, gstruct.Float32)
					for i := range merged {
						merged[i] += rawF32(col, i)
					}
				}
				res.MapPhase = c.Clock.Now() - tm0
				core.FreeBlocks(partials)
				for _, b := range perWorker {
					b.Free()
				}
				centBuf.Free()
				cents = kernels.UpdateCentroids(merged, cents, p.K, p.D)
			})
		plan.Do(sub, "sink", func(ctx *plan.Ctx) {
			if it == p.Iterations-1 && p.WriteResult {
				// HiBench KMeans writes the per-point cluster assignments.
				writeResult(g, "kmeans-output", p.Points*8)
			}
		})
	})
	plan.EitherDo(gr, "cleanup",
		func(ctx *plan.Ctx) {},
		func(ctx *plan.Ctx) {
			g.ReleaseJobCaches(ctx.Job.ID)
			core.FreeBlocks(ds)
		})
	gr.Execute()

	res.Iterations = iters.Durations
	res.Total = c.Clock.Now() - start
	res.Checksum = centroidChecksum(cents)
	return res
}

// KMeansCPU runs the baseline-Flink KMeans. Call inside the cluster's
// virtual clock.
func KMeansCPU(g *core.GFlink, p KMeansParams) Result {
	return KMeans(g, p, plan.Options{Mode: plan.ForceCPU})
}

// KMeansGPU runs the GFlink KMeans: points live in SoA GDST blocks,
// each iteration broadcasts the centroids and launches the fused
// assign-reduce kernel per block.
func KMeansGPU(g *core.GFlink, p KMeansParams) Result {
	return KMeans(g, p, plan.Options{Mode: plan.ForceGPU})
}

// putRawF32 writes a little-endian float32 at index i of buf.
func putRawF32(buf []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
}

// rawF32 reads a little-endian float32 at index i of buf.
func rawF32(buf []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
}
