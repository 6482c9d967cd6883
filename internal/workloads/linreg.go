package workloads

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// LinRegParams configures the LinearRegression benchmark (batch
// gradient descent over dense samples, Fig 6b).
type LinRegParams struct {
	// Samples is the nominal sample count (150-270 million in the
	// paper).
	Samples int64
	// D is the feature dimension.
	D int
	// Iterations is the gradient-descent step count.
	Iterations  int
	Parallelism int
	UseCache    bool
	// MetaCols widens each sample with unread trailing float32 metadata
	// columns after the label; the gradient kernel reads only the D+1
	// feature/label prefix, so projection can drop them from the
	// transfer channel (the abl-projection setup).
	MetaCols int
	Seed     uint64
}

func (p *LinRegParams) defaults() {
	if p.D == 0 {
		p.D = 32
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// linregLearningRate is the gradient-descent step size.
const linregLearningRate = 0.1

// linregGen generates the regression samples: d features uniform in
// [-1, 1), then a label from the planted model (truth·x + bias) plus
// small noise, then the MetaCols metadata columns. Each feature is drawn
// once and reused for the label.
type linregGen struct {
	seed    uint64
	d, meta int
	truth   []float32 // d weights, then the bias
}

func newLinRegGen(p LinRegParams) *linregGen {
	truth := make([]float32, p.D+1)
	for j := range truth {
		truth[j] = unit(p.Seed+555, uint64(j))*2 - 1
	}
	return &linregGen{seed: p.Seed, d: p.D, meta: p.MetaCols, truth: truth}
}

// feature returns feature j of nominal sample ord.
func (g *linregGen) feature(ord int64, j int) float32 {
	return float32(unit(g.seed, uint64(ord)*uint64(g.d+1)+uint64(j))*2 - 1)
}

// label adds sample ord's noise to its model value y.
func (g *linregGen) label(ord int64, y float32) float32 {
	return y + float32(unit(g.seed+999, uint64(ord))*0.02-0.01)
}

// sample writes the d features and the label of nominal sample ord into
// dst.
func (g *linregGen) sample(ord int64, dst []float32) {
	y := g.truth[g.d]
	for j := 0; j < g.d; j++ {
		x := g.feature(ord, j)
		dst[j] = x
		y += g.truth[j] * x
	}
	dst[g.d] = g.label(ord, y)
}

// fill writes one SoA block of samples column by column (the GDST
// fill): element i is nominal sample ord0 + i*step.
func (g *linregGen) fill(_ int, v gstruct.View, ord0, step int64) {
	n := v.Len()
	var ys [fillChunk]float32
	for lo := 0; lo < n; lo += fillChunk {
		hi := min(lo+fillChunk, n)
		for i := lo; i < hi; i++ {
			ys[i-lo] = g.truth[g.d]
		}
		for j := 0; j < g.d; j++ {
			col, w := v.Column(j, gstruct.Float32), g.truth[j]
			for i := lo; i < hi; i++ {
				x := g.feature(ord0+int64(i)*step, j)
				putRawF32(col, i, x)
				ys[i-lo] += w * x
			}
		}
		col := v.Column(g.d, gstruct.Float32)
		for i := lo; i < hi; i++ {
			putRawF32(col, i, g.label(ord0+int64(i)*step, ys[i-lo]))
		}
	}
	for m := 0; m < g.meta; m++ {
		col := v.Column(g.d+1+m, gstruct.Float32)
		for i := 0; i < n; i++ {
			putRawF32(col, i, unit(g.seed+888, uint64(ord0+int64(i)*step)*59+uint64(m)))
		}
	}
}

func weightsChecksum(w []float32) float64 {
	var s float64
	for i, v := range w {
		s += float64(v) * float64(i+1)
	}
	return s
}

// LinRegCPU runs the baseline-Flink linear regression.
func LinRegCPU(g *core.GFlink, p LinRegParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("linreg-cpu")
	gen := newLinRegGen(p)
	samples := flink.Generate(j, "samples", p.Samples, 4*(p.D+1), p.Parallelism, func(part int, ord int64) []float32 {
		s := make([]float32, p.D+1)
		gen.sample(ord, s)
		return s
	})
	weights := make([]float32, p.D+1)
	res := Result{}
	// The JVM iterator path pays tuple access and boxing per feature on
	// top of the arithmetic.
	perRec := costmodel.Work{Flops: float64(20*p.D + 8), BytesRead: float64(4 * (p.D + 1))}
	n := float32(samples.RealCount())
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		j.Broadcast(int64(4 * (p.D + 1)))
		w := weights
		tm0 := c.Clock.Now()
		// One fixed-size gradient partial per partition regardless of
		// scale: nominal output count is 1.
		partials := flink.ProcessPartitions(samples, "gradient", 4*(p.D+2), func(pi, worker int, in flink.Partition[[]float32]) ([][]float32, int64) {
			j.ChargeCompute(in.Nominal, perRec)
			return [][]float32{kernels.CPULinRegGrad(in.Items, w, p.D)}, 1
		})
		grad := make([]float32, p.D+2)
		for _, part := range flink.Collect(partials) {
			kernels.MergePartials(grad, part)
		}
		res.MapPhase = c.Clock.Now() - tm0
		weights = kernels.ApplyGradient(weights, grad, n, linregLearningRate, p.D)
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	res.Total = c.Clock.Now() - start
	res.Checksum = weightsChecksum(weights)
	return res
}

// LinRegGPU runs the GFlink linear regression with the gradient kernel.
func LinRegGPU(g *core.GFlink, p LinRegParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("linreg-gpu")
	// MetaCols > 0 widens the schema with trailing metadata columns the
	// gradient kernel never reads.
	schema := kernels.SampleSchemaMeta(p.D, p.MetaCols)
	ds := core.NewGDST(g, j, schema, gstruct.SoA, p.Samples, p.Parallelism, newLinRegGen(p).fill)
	partialSchema := gstruct.MustNew("LRPartial", 4,
		gstruct.Field{Name: "grad", Kind: gstruct.Float32, Len: p.D + 2})
	weights := make([]float32, p.D+1)
	res := Result{}
	workers := g.Cfg.Config.Workers
	// Real sample count: ds counts blocks, so sum their element counts.
	var realSamples int
	for pi := 0; pi < ds.Partitions(); pi++ {
		for _, b := range ds.Partition(pi).Items {
			realSamples += b.N
		}
	}
	n := float32(realSamples)
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		wBuf := c.TaskManagers[0].Pool.MustAllocate(4 * (p.D + 1))
		for i, v := range weights {
			putRawF32(wBuf.Bytes(), i, v)
		}
		perWorker := core.BroadcastBuffer(g, j, wBuf, int64(4*(p.D+1)))
		tm0 := c.Clock.Now()
		partials := core.GPUReducePartition(g, ds, core.GPUMapSpec{
			Name:       "linregGrad",
			Kernel:     kernels.LinRegGradKernel,
			OutSchema:  partialSchema,
			OutLayout:  gstruct.AoS,
			CacheInput: p.UseCache,
			Args:       []int64{int64(p.D)},
			Extra: func(b *core.Block) []core.Input {
				return []core.Input{{
					Buf:     perWorker[b.Partition%workers],
					Nominal: int64(4 * (p.D + 1)),
				}}
			},
		}, 1)
		grad := make([]float32, p.D+2)
		for _, blk := range core.CollectBlocks(partials) {
			col := blk.View().Column(0, gstruct.Float32)
			for i := range grad {
				grad[i] += rawF32(col, i)
			}
		}
		res.MapPhase = c.Clock.Now() - tm0
		core.FreeBlocks(partials)
		for _, b := range perWorker {
			b.Free()
		}
		wBuf.Free()
		weights = kernels.ApplyGradient(weights, grad, n, linregLearningRate, p.D)
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	g.ReleaseJobCaches(j.ID)
	core.FreeBlocks(ds)
	res.Total = c.Clock.Now() - start
	res.Checksum = weightsChecksum(weights)
	return res
}
