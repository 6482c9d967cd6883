package kernels

import (
	"fmt"
	"math"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
)

// KMeansAssignKernel assigns every point of a block to its nearest
// centroid and accumulates per-centroid partial sums, fusing the assign
// and partial-update steps of one KMeans iteration (the dominant
// operation the paper offloads: "searching for the closest centers").
//
// Buffers:
//
//	In[0]  — points, SoA float32, d coordinates per point
//	In[1]  — centroids, k*d float32
//	Out[0] — partials, k*(d+1) float32: per-centroid coordinate sums
//	         followed by the member count
//	Args   — [k, d]
const KMeansAssignKernel = "gflink.kmeansAssign"

// PointSchema returns the GStruct for d-dimensional float32 points: d
// scalar fields, so the SoA layout stores one contiguous column per
// coordinate (the coalesced columnar format of Section 3.2) and the
// kernel addresses coordinate j of point i at j*n+i.
func PointSchema(d int) *gstruct.Schema {
	fields := make([]gstruct.Field, d)
	for j := range fields {
		fields[j] = gstruct.Field{Name: fmt.Sprintf("c%d", j), Kind: gstruct.Float32}
	}
	return gstruct.MustNew(fmt.Sprintf("Point%d", d), 4, fields...)
}

// KMeansWork returns the per-point resource demand of one assign step.
func KMeansWork(k, d int) costmodel.Work {
	return costmodel.Work{
		Flops:        float64(3*k*d + d), // distance terms + accumulate
		BytesRead:    float64(4 * d),     // centroids live in shared memory
		BytesWritten: 0,                  // partials are negligible per point
	}
}

func init() {
	// kmeansAssign reads only the first d coordinate columns of the
	// point block (Args[1]); any trailing metadata columns a wider
	// schema carries are never touched, so the transfer channel may
	// project them away.
	gpu.RegisterFieldUse(KMeansAssignKernel, gpu.FieldUse{
		Reads: func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool) {
			if len(args) < 2 {
				return 0, false
			}
			d := int(args[1])
			if d <= 0 || d > s.NumFields() || d > gstruct.MaxCols {
				return 0, false
			}
			return gstruct.ColRange(0, d), true
		},
		Writes: func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool) {
			return 0, true // partials go to Out, the block is read-only
		},
	})
	gpu.Register(KMeansAssignKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 2 || len(ctx.Out) < 1 || len(ctx.Args) < 2 {
			return fmt.Errorf("kmeansAssign: want 2 inputs, 1 output, 2 args")
		}
		k, d, n := ctx.Args[0], ctx.Args[1], int64(ctx.N)
		points, cents, out := ctx.In[0].Bytes(), ctx.In[1].Bytes(), ctx.Out[0].Bytes()
		switch {
		case k <= 0:
			return fmt.Errorf("kmeansAssign: k = %d, want > 0", k)
		case d <= 0 || d > gstruct.MaxCols:
			return fmt.Errorf("kmeansAssign: d = %d, want 1..%d", d, gstruct.MaxCols)
		case int64(len(points)) < 4*n*d:
			return fmt.Errorf("kmeansAssign: points buffer %d bytes, want %d for n=%d d=%d", len(points), 4*n*d, n, d)
		case int64(len(cents)) < 4*k*d:
			return fmt.Errorf("kmeansAssign: centroid buffer %d bytes, want %d for k=%d d=%d", len(cents), 4*k*d, k, d)
		case int64(len(out)) < 4*k*(d+1):
			return fmt.Errorf("kmeansAssign: partials buffer %d bytes, want %d for k=%d d=%d", len(out), 4*k*(d+1), k, d)
		}
		kmeansAssign(points, cents, out, int(n), int(k), int(d))
		ctx.Charge(KMeansWork(int(k), int(d)).Scale(float64(ctx.Nominal)))
		return nil
	})
}

// kmeansTile is how many points kmeansAssign decodes and scores at once:
// the tile's coordinates (tile × MaxCols float32, 8 KiB) stay on the
// stack and in L1 while every centroid is scored against them.
const kmeansTile = 32

// kmeansAssign is the host body of KMeansAssignKernel over validated
// buffers (d ≤ gstruct.MaxCols). It is bit-identical to CPUKMeansAssign:
// each (point, centroid) distance sums j = 0..d-1 in order with the same
// float32 operations, the best centroid is the first strict minimum over
// ascending c, and the partials accumulate in point order. What differs is
// only the host cost: every input element is decoded once (points once per
// launch, centroids once per tile), four points are scored per centroid
// pass on independent accumulators, and nothing is heap-allocated.
func kmeansAssign(points, cents, out []byte, n, k, d int) {
	clear(out)
	var (
		tile     [kmeansTile][gstruct.MaxCols]float32
		best     [kmeansTile]int
		bestDist [kmeansTile]float32
		cent     [gstruct.MaxCols]float32
	)
	row := cent[:d]
	for i0 := 0; i0 < n; i0 += kmeansTile {
		m := min(kmeansTile, n-i0)
		// SoA: coordinate j of point i is at column j, row i.
		for j := 0; j < d; j++ {
			col := points[4*(j*n+i0) : 4*(j*n+i0+m)]
			for t := range m {
				tile[t][j] = f32(col, t)
			}
		}
		for t := range m {
			best[t], bestDist[t] = 0, math.MaxFloat32
		}
		for c := 0; c < k; c++ {
			for j := range row {
				row[j] = f32(cents, c*d+j)
			}
			t := 0
			for ; t+4 <= m; t += 4 {
				p0, p1, p2, p3 := tile[t][:d], tile[t+1][:d], tile[t+2][:d], tile[t+3][:d]
				var d0, d1, d2, d3 float32
				for j, cj := range row {
					x0, x1, x2, x3 := p0[j]-cj, p1[j]-cj, p2[j]-cj, p3[j]-cj
					d0 += x0 * x0
					d1 += x1 * x1
					d2 += x2 * x2
					d3 += x3 * x3
				}
				if d0 < bestDist[t] {
					best[t], bestDist[t] = c, d0
				}
				if d1 < bestDist[t+1] {
					best[t+1], bestDist[t+1] = c, d1
				}
				if d2 < bestDist[t+2] {
					best[t+2], bestDist[t+2] = c, d2
				}
				if d3 < bestDist[t+3] {
					best[t+3], bestDist[t+3] = c, d3
				}
			}
			for ; t < m; t++ {
				p := tile[t][:d]
				var dist float32
				for j, cj := range row {
					diff := p[j] - cj
					dist += diff * diff
				}
				if dist < bestDist[t] {
					best[t], bestDist[t] = c, dist
				}
			}
		}
		for t := range m {
			part := out[4*best[t]*(d+1) : 4*(best[t]+1)*(d+1)]
			for j, x := range tile[t][:d] {
				putF32(part, j, f32(part, j)+x)
			}
			putF32(part, d, f32(part, d)+1)
		}
	}
}

// CPUKMeansAssign is the reference per-partition implementation: it
// returns the k*(d+1) partial sums for the given points (row-major
// [][]float32) and flat centroids.
func CPUKMeansAssign(points [][]float32, cents []float32, k, d int) []float32 {
	out := make([]float32, k*(d+1))
	for _, p := range points {
		best, bestDist := 0, float32(math.MaxFloat32)
		for c := 0; c < k; c++ {
			var dist float32
			for j := 0; j < d; j++ {
				diff := p[j] - cents[c*d+j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		for j := 0; j < d; j++ {
			out[best*(d+1)+j] += p[j]
		}
		out[best*(d+1)+d]++
	}
	return out
}

// UpdateCentroids folds partial sums into new centroids; empty clusters
// keep their previous position.
func UpdateCentroids(partials []float32, prev []float32, k, d int) []float32 {
	next := make([]float32, k*d)
	for c := 0; c < k; c++ {
		count := partials[c*(d+1)+d]
		for j := 0; j < d; j++ {
			if count > 0 {
				next[c*d+j] = partials[c*(d+1)+j] / count
			} else {
				next[c*d+j] = prev[c*d+j]
			}
		}
	}
	return next
}

// MergePartials sums per-block or per-partition partials element-wise.
func MergePartials(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}
