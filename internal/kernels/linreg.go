package kernels

import (
	"fmt"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
)

// LinRegGradKernel computes a block's partial gradient for batch
// least-squares linear regression (the classification workload of
// Fig 6b): for each sample, err = w·x + b - y, accumulating err*x[j]
// per weight plus err for the bias and err² for the loss.
//
// Buffers:
//
//	In[0]  — samples, SoA float32: d feature columns then the label
//	         column
//	In[1]  — weights, d+1 float32 (w then bias)
//	Out[0] — partials, d+2 float32: gradient (d+1) then loss sum
//	Args   — [d]
const LinRegGradKernel = "gflink.linregGrad"

// SampleSchemaMeta returns the GStruct for d features plus a label,
// followed by meta unread float32 metadata columns: scalar fields so
// the SoA layout yields one contiguous column per feature, with the
// label at offset d*n. The metadata columns are ones the gradient
// kernel never touches, which column projection can keep off the
// transfer channel.
func SampleSchemaMeta(d, meta int) *gstruct.Schema {
	fields := make([]gstruct.Field, d+1+meta)
	for j := 0; j < d; j++ {
		fields[j] = gstruct.Field{Name: fmt.Sprintf("f%d", j), Kind: gstruct.Float32}
	}
	fields[d] = gstruct.Field{Name: "label", Kind: gstruct.Float32}
	for m := 0; m < meta; m++ {
		fields[d+1+m] = gstruct.Field{Name: fmt.Sprintf("m%d", m), Kind: gstruct.Float32}
	}
	name := fmt.Sprintf("Sample%d", d)
	if meta > 0 {
		name = fmt.Sprintf("Sample%dm%d", d, meta)
	}
	return gstruct.MustNew(name, 4, fields...)
}

// LinRegWork returns the per-sample demand of one gradient step.
func LinRegWork(d int) costmodel.Work {
	return costmodel.Work{
		Flops:     float64(4*d + 6), // dot product + gradient accumulation
		BytesRead: float64(4 * (d + 1)),
	}
}

func init() {
	// linregGrad reads the d feature columns plus the label column — the
	// first d+1 fields (Args[0] = d); trailing metadata columns of a
	// wider sample schema are projectable.
	gpu.RegisterFieldUse(LinRegGradKernel, gpu.FieldUse{
		Reads: func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool) {
			if len(args) < 1 {
				return 0, false
			}
			d := int(args[0])
			if d < 0 || d+1 > s.NumFields() || d+1 > gstruct.MaxCols {
				return 0, false
			}
			return gstruct.ColRange(0, d+1), true
		},
		Writes: func(s *gstruct.Schema, args []int64) (gstruct.ColSet, bool) {
			return 0, true // gradients go to Out, the block is read-only
		},
	})
	gpu.Register(LinRegGradKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 2 || len(ctx.Out) < 1 || len(ctx.Args) < 1 {
			return fmt.Errorf("linregGrad: want 2 inputs, 1 output, 1 arg")
		}
		d := int(ctx.Args[0])
		samples, weights, out := ctx.In[0].Bytes(), ctx.In[1].Bytes(), ctx.Out[0].Bytes()
		for i := range out {
			out[i] = 0
		}
		n := ctx.N
		for i := 0; i < n; i++ {
			pred := f32(weights, d) // bias
			for j := 0; j < d; j++ {
				pred += f32(weights, j) * f32(samples, j*n+i)
			}
			err := pred - f32(samples, d*n+i) // label column is last
			for j := 0; j < d; j++ {
				putF32(out, j, f32(out, j)+err*f32(samples, j*n+i))
			}
			putF32(out, d, f32(out, d)+err)
			putF32(out, d+1, f32(out, d+1)+err*err)
		}
		ctx.Charge(LinRegWork(d).Scale(float64(ctx.Nominal)))
		return nil
	})
}

// CPULinRegGrad is the reference per-partition gradient: samples are
// row-major feature vectors with the label appended.
func CPULinRegGrad(samples [][]float32, weights []float32, d int) []float32 {
	out := make([]float32, d+2)
	for _, s := range samples {
		pred := weights[d]
		for j := 0; j < d; j++ {
			pred += weights[j] * s[j]
		}
		err := pred - s[d]
		for j := 0; j < d; j++ {
			out[j] += err * s[j]
		}
		out[d] += err
		out[d+1] += err * err
	}
	return out
}

// ApplyGradient performs one SGD step: w -= lr/n * grad.
func ApplyGradient(weights, grad []float32, n float32, lr float32, d int) []float32 {
	next := make([]float32, d+1)
	for j := 0; j <= d; j++ {
		next[j] = weights[j] - lr*grad[j]/n
	}
	return next
}
