package kernels

import (
	"fmt"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
)

// PageRankContribKernel scatters rank contributions of an edge block
// into a dense per-block accumulator (one PageRank superstep's
// edge-local half; the cross-partition aggregation stays a Flink
// shuffle, which is why PageRank's end-to-end speedup is bounded).
//
// Buffers:
//
//	In[0]  — edges, int32 (src, dst) pairs (cacheable: the graph is static)
//	In[1]  — ranks, float32[n] (fresh every superstep)
//	In[2]  — outdeg, int32[n] (cacheable: static)
//	Out[0] — contrib, float32[n]
//	Args   — [n]
const PageRankContribKernel = "gflink.pagerankContrib"

// PageRankWork is the per-edge demand of the contribution scatter.
var PageRankWork = costmodel.Work{Flops: 2, BytesRead: 16, BytesWritten: 4}

// ConnCompKernel propagates component labels along an edge block (one
// label-propagation superstep): out[v] = min(label[v], min over
// incoming edges of label[u]).
//
// Buffers:
//
//	In[0]  — edges, AoS Edge
//	In[1]  — labels, uint32[n]
//	Out[0] — new labels, uint32[n]
//	Args   — [n]
const ConnCompKernel = "gflink.concompProp"

// ConnCompWork is the per-edge demand of label propagation.
var ConnCompWork = costmodel.Work{Flops: 1, BytesRead: 16, BytesWritten: 4}

func init() {
	gpu.Register(PageRankContribKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 3 || len(ctx.Out) < 1 || len(ctx.Args) < 1 {
			return fmt.Errorf("pagerankContrib: want 3 inputs, 1 output, 1 arg")
		}
		edges, ranks, outdeg, out := ctx.In[0].Bytes(), ctx.In[1].Bytes(), ctx.In[2].Bytes(), ctx.Out[0].Bytes()
		for i := range out {
			out[i] = 0
		}
		for e := 0; e < ctx.N; e++ {
			src := int(i32(edges, e*2))
			dst := int(i32(edges, e*2+1))
			deg := i32(outdeg, src)
			if deg > 0 {
				contrib := f32(ranks, src) / float32(deg)
				putF32(out, dst, f32(out, dst)+contrib)
			}
		}
		ctx.Charge(PageRankWork.Scale(float64(ctx.Nominal)))
		return nil
	})

	gpu.Register(ConnCompKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 2 || len(ctx.Out) < 1 || len(ctx.Args) < 1 {
			return fmt.Errorf("concompProp: want 2 inputs, 1 output, 1 arg")
		}
		n := int(ctx.Args[0])
		edges, labels, out := ctx.In[0].Bytes(), ctx.In[1].Bytes(), ctx.Out[0].Bytes()
		for v := 0; v < n; v++ {
			putU32(out, v, u32(labels, v))
		}
		for e := 0; e < ctx.N; e++ {
			src := int(i32(edges, e*2))
			dst := int(i32(edges, e*2+1))
			ls, ld := u32(labels, src), u32(out, dst)
			if ls < ld {
				putU32(out, dst, ls)
			}
		}
		ctx.Charge(ConnCompWork.Scale(float64(ctx.Nominal)))
		return nil
	})
}

// CPUPageRankContrib is the reference edge-block scatter: edges are
// (src, dst) pairs, ranks and outdeg are dense node arrays.
func CPUPageRankContrib(edges [][2]int32, ranks []float32, outdeg []int32, n int) []float32 {
	out := make([]float32, n)
	for _, e := range edges {
		if d := outdeg[e[0]]; d > 0 {
			out[e[1]] += ranks[e[0]] / float32(d)
		}
	}
	return out
}

// ApplyDamping folds aggregated contributions into next-iteration ranks.
func ApplyDamping(contrib []float32, damping float32, n int) []float32 {
	out := make([]float32, n)
	base := (1 - damping) / float32(n)
	for i, c := range contrib {
		out[i] = base + damping*c
	}
	return out
}

// CPUConnCompProp is the reference label-propagation step. It returns
// the new labels and whether anything changed.
func CPUConnCompProp(edges [][2]int32, labels []uint32) ([]uint32, bool) {
	out := make([]uint32, len(labels))
	copy(out, labels)
	changed := false
	for _, e := range edges {
		if ls := labels[e[0]]; ls < out[e[1]] {
			out[e[1]] = ls
			changed = true
		}
	}
	return out, changed
}
