package workloads

import (
	"gflink/internal/core"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// PointAddParams configures the PointAdd microbenchmark of
// Algorithm 3.1, used in the GMapper-speedup (Fig 8b) and concurrency
// (Fig 8c/8d) experiments.
type PointAddParams struct {
	// Points is the nominal point count.
	Points int64
	// Iterations repeats the map (iTimes in Algorithm 3.1).
	Iterations  int
	Parallelism int
	UseCache    bool
	Seed        uint64
}

func (p *PointAddParams) defaults() {
	if p.Iterations == 0 {
		p.Iterations = 1
	}
}

var pointAddDelta = [3]float32{1.0, 2.0, 3.0}

func pointAddCoord(seed uint64, ord int64, j int) float32 {
	return unit(seed, uint64(ord)*3+uint64(j)) * 10
}

// PointAddCPU runs the baseline map.
func PointAddCPU(g *core.GFlink, p PointAddParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("pointadd-cpu")
	pts := flink.Generate(j, "points", p.Points, 12, p.Parallelism, func(part int, ord int64) [3]float32 {
		return [3]float32{
			pointAddCoord(p.Seed, ord, 0),
			pointAddCoord(p.Seed, ord, 1),
			pointAddCoord(p.Seed, ord, 2),
		}
	})
	res := Result{}
	var sum float64
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		tm0 := c.Clock.Now()
		pts = flink.Map(pts, "addPoint", kernels.PointAddWork, 12, func(pt [3]float32) [3]float32 {
			return kernels.CPUPointAdd(pt, pointAddDelta)
		})
		res.MapPhase = c.Clock.Now() - tm0
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	for pi := 0; pi < pts.Partitions(); pi++ {
		for _, pt := range pts.Partition(pi).Items {
			sum += float64(pt[0]) + float64(pt[1]) + float64(pt[2])
		}
	}
	res.Total = c.Clock.Now() - start
	res.Checksum = sum
	return res
}

// PointAddGPU runs the gpuMapPartition version of Algorithm 3.1.
func PointAddGPU(g *core.GFlink, p PointAddParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("pointadd-gpu")
	ds := core.NewGDST(g, j, kernels.Point3Schema, gstruct.AoS, p.Points, p.Parallelism, func(part int, v gstruct.View, ord0, step int64) {
		for i := 0; i < v.Len(); i++ {
			for jj := 0; jj < 3; jj++ {
				v.PutFloat32At(i, jj, 0, pointAddCoord(p.Seed, ord0+int64(i)*step, jj))
			}
		}
	})
	res := Result{}
	cur := ds
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		tm0 := c.Clock.Now()
		next := core.GPUMapPartition(g, cur, core.GPUMapSpec{
			Name:       "addPoint",
			Kernel:     kernels.PointAddKernel,
			OutSchema:  kernels.Point3Schema,
			OutLayout:  gstruct.AoS,
			CacheInput: p.UseCache && it == 0,
			Args: []int64{
				kernels.F32Arg(pointAddDelta[0]),
				kernels.F32Arg(pointAddDelta[1]),
				kernels.F32Arg(pointAddDelta[2]),
			},
		})
		res.MapPhase = c.Clock.Now() - tm0
		if cur != ds {
			core.FreeBlocks(cur)
		}
		cur = next
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	var sum float64
	for pi := 0; pi < cur.Partitions(); pi++ {
		for _, b := range cur.Partition(pi).Items {
			v := b.View()
			for i := 0; i < b.N; i++ {
				sum += float64(v.Float32At(i, 0, 0)) + float64(v.Float32At(i, 1, 0)) + float64(v.Float32At(i, 2, 0))
			}
		}
	}
	g.ReleaseJobCaches(j.ID)
	if cur != ds {
		core.FreeBlocks(cur)
	}
	core.FreeBlocks(ds)
	res.Total = c.Clock.Now() - start
	res.Checksum = sum
	return res
}
