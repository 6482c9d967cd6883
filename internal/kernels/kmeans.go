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
		// Bound n and k by division, so that no product below overflows.
		case n < 0 || n > int64(len(points))/(4*d):
			return fmt.Errorf("kmeansAssign: points buffer %d bytes, too short for n=%d d=%d", len(points), n, d)
		case k > int64(len(cents))/(4*d):
			return fmt.Errorf("kmeansAssign: centroid buffer %d bytes, too short for k=%d d=%d", len(cents), k, d)
		case k > int64(len(out))/(4*(d+1)):
			return fmt.Errorf("kmeansAssign: partials buffer %d bytes, too short for k=%d d=%d", len(out), k, d)
		}
		kmeansAssign(points, cents, out, int(n), int(k), int(d))
		ctx.Charge(KMeansWork(int(k), int(d)).Scale(float64(ctx.Nominal)))
		return nil
	})
}

// kmeansLanes is how many points one assignGroup call assigns: four SSE2
// registers of four float32 lanes each, or two AVX2 registers of eight.
const kmeansLanes = 16

// kmeansScratch is how many float32 partials kmeansAssign keeps on the
// stack (16 KiB); a launch with k·kmeansRow(d) above it sums on the heap.
// It is 1024 times four, the most the padding can multiply a row by
// (d = 1), so every launch with k·(d+1) ≤ 1024 sums on the stack.
const kmeansScratch = 4096

// kmeansRow is the float32 stride of one partial row in the sums
// kmeansAssign keeps: the d coordinate sums and the count, then +0
// padding up to a multiple of eight, so that the AVX2 body adds a point
// to a row as whole YMM vectors. Only the first d+1 of each row reach
// the kernel's output.
func kmeansRow(d int) int { return (d + 8) &^ 7 }

// kmeansAssign is the host body of KMeansAssignKernel over validated
// buffers (d ≤ gstruct.MaxCols). It is bit-identical to CPUKMeansAssign:
// each (point, centroid) distance sums j = 0..d-1 in order from +0 with
// the same float32 operations, the best centroid is the first strict
// minimum over ascending c, and the partials accumulate in point order.
// What differs is only the host cost: assignGroup assigns sixteen points
// at a time straight from the SoA bytes (the n mod 16 leftover points
// from a zero-padded copy), the partials are summed as float32 in rows
// of kmeansRow(d) and their first d+1 encoded into out once, and nothing
// is heap-allocated unless k·kmeansRow(d) exceeds kmeansScratch.
func kmeansAssign(points, cents, out []byte, n, k, d int) {
	r := kmeansRow(d)
	var scratch [kmeansScratch]float32
	acc := scratch[:]
	if k*r > kmeansScratch {
		acc = make([]float32, k*r)
	}
	i0 := 0
	for ; i0+kmeansLanes <= n; i0 += kmeansLanes {
		// SoA: coordinate j of point i is at column j, row i, so the
		// group's d columns of sixteen rows start at i0 with stride n.
		span := points[4*i0 : 4*((d-1)*n+i0+kmeansLanes)]
		assignGroup(acc, span, n, kmeansLanes, cents, k, d)
	}
	if m := n - i0; m > 0 {
		// The leftovers' d columns, each padded with zero points to
		// sixteen rows; the padding lanes are scored but never added.
		var pad [4 * kmeansLanes * gstruct.MaxCols]byte
		for j := 0; j < d; j++ {
			copy(pad[4*j*kmeansLanes:], points[4*(j*n+i0):4*(j*n+n)])
		}
		assignGroup(acc, pad[:4*d*kmeansLanes], kmeansLanes, m, cents, k, d)
	}
	for c := range k {
		for j, v := range acc[c*r : c*r+d+1] {
			putF32(out, c*(d+1)+j, v)
		}
	}
	clear(out[4*k*(d+1):])
}

// assignGroup assigns the first m of the sixteen points whose coordinate
// j is float32 number j·stride+l of span to the first of the k centroid
// rows in cents at the least squared distance, and adds each, in point
// order, to that centroid's partial row in acc (kmeansRow(d) float32s: d
// coordinate sums, the member count, then padding that stays +0). It
// checks, in Go, that span holds the whole column span, cents k rows of
// d and acc k partial rows, and that 1 ≤ m ≤ 16 and d ≤ gstruct.MaxCols,
// before it calls assignGroupBody, so that no body reaches outside its
// slices.
func assignGroup(acc []float32, span []byte, stride, m int, cents []byte, k, d int) {
	room := len(span)/4 - kmeansLanes // float32s the span holds past column 0
	// No division: d ≤ MaxCols, stride ≤ room and k ≤ len(acc) are
	// checked before the products they bound, which stay far below 2^63.
	if m < 1 || m > kmeansLanes || k < 1 || d < 1 || d > gstruct.MaxCols ||
		stride < 0 || room < 0 || (d > 1 && (stride > room || (d-1)*stride > room)) ||
		k > len(acc) || k*kmeansRow(d) > len(acc) || k*d > len(cents)/4 {
		panic("kernels: assignGroup arguments outside their slices")
	}
	assignGroupBody(acc, span, stride, m, cents, k, d)
}

// assignGroupGo is the portable assignGroup body: the only one on
// architectures without an assembly body, and the reference
// TestAssignGroupMatchesPortable holds the assembly to.
func assignGroupGo(acc []float32, span []byte, stride, m int, cents []byte, k, d int) {
	var (
		best     [kmeansLanes]int
		bestDist [kmeansLanes]float32
	)
	for l := range bestDist {
		bestDist[l] = math.MaxFloat32
	}
	for c := range k {
		var dist [kmeansLanes]float32
		cent := cents[4*c*d : 4*(c+1)*d]
		for j := range d {
			cj := f32(cent, j)
			col := span[4*j*stride : 4*(j*stride+kmeansLanes)]
			for l := range dist {
				diff := f32(col, l) - cj
				dist[l] += diff * diff
			}
		}
		for l, x := range dist {
			if x < bestDist[l] {
				best[l], bestDist[l] = c, x
			}
		}
	}
	// ADDSS keeps its destination's NaN when both operands are NaN, and Go
	// may make either operand the destination. In CPUKMeansAssign the sum
	// is the destination, so a NaN sum never changes: a point with a NaN
	// coordinate (whose distances are all NaN) is added around NaN sums.
	// Any other point's adds have at most one NaN operand and need no
	// guard, which keeps it off the hot loop.
	r := kmeansRow(d)
	for l, c := range best[:m] {
		part := acc[c*r : c*r+d+1]
		if bestDist[l] < math.MaxFloat32 {
			for j := range part[:d] {
				part[j] += f32(span, j*stride+l)
			}
		} else {
			for j := range part[:d] {
				if s := part[j]; s == s {
					part[j] = s + f32(span, j*stride+l)
				}
			}
		}
		part[d]++
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
