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
	Iterations int
	// LearningRate for the weight update.
	LearningRate float32
	Parallelism  int
	UseCache     bool
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
	if p.LearningRate == 0 {
		p.LearningRate = 0.1
	}
}

// trueWeights is the planted model the generator samples from.
func linregTrueWeights(seed uint64, d int) []float32 {
	w := make([]float32, d+1)
	for j := range w {
		w[j] = unit(seed+555, uint64(j))*2 - 1
	}
	return w
}

// linregSample generates feature j (j<d) or the label (j==d) of sample
// ord.
func linregSample(seed uint64, truth []float32, ord int64, j, d int) float32 {
	if j < d {
		return unit(seed, uint64(ord)*uint64(d+1)+uint64(j))*2 - 1
	}
	// Label: truth·x + bias + small noise.
	var y float32 = truth[d]
	for jj := 0; jj < d; jj++ {
		y += truth[jj] * (unit(seed, uint64(ord)*uint64(d+1)+uint64(jj))*2 - 1)
	}
	return y + (unit(seed+999, uint64(ord))*0.02 - 0.01)
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
	truth := linregTrueWeights(p.Seed, p.D)
	samples := flink.Generate(j, "samples", p.Samples, 4*(p.D+1), p.Parallelism, func(part int, ord int64) []float32 {
		s := make([]float32, p.D+1)
		for jj := 0; jj <= p.D; jj++ {
			s[jj] = linregSample(p.Seed, truth, ord, jj, p.D)
		}
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
		weights = kernels.ApplyGradient(weights, grad, n, p.LearningRate, p.D)
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
	truth := linregTrueWeights(p.Seed, p.D)
	// MetaCols > 0 widens the schema with trailing metadata columns the
	// gradient kernel never reads.
	schema := kernels.SampleSchemaMeta(p.D, p.MetaCols)
	ds := core.NewGDST(g, j, schema, gstruct.SoA, p.Samples, p.Parallelism, func(part int, v gstruct.View, i int, ord int64) {
		for jj := 0; jj <= p.D; jj++ {
			v.PutFloat32At(i, jj, 0, linregSample(p.Seed, truth, ord, jj, p.D))
		}
		for m := 0; m < p.MetaCols; m++ {
			v.PutFloat32At(i, p.D+1+m, 0, unit(p.Seed+888, uint64(ord)*59+uint64(m)))
		}
	})
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
			v := blk.View()
			for i := range grad {
				grad[i] += v.Float32At(0, 0, i)
			}
		}
		res.MapPhase = c.Clock.Now() - tm0
		core.FreeBlocks(partials)
		for _, b := range perWorker {
			b.Free()
		}
		wBuf.Free()
		weights = kernels.ApplyGradient(weights, grad, n, p.LearningRate, p.D)
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	g.ReleaseJobCaches(j.ID)
	core.FreeBlocks(ds)
	res.Total = c.Clock.Now() - start
	res.Checksum = weightsChecksum(weights)
	return res
}
