package workloads

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/plan"
)

// SpMVParams configures the iterative sparse matrix-vector benchmark
// (Fig 6a, 7b, 7d, 8a): y = A·x repeated, with the matrix cacheable on
// the GPUs and the vector re-shipped every iteration.
type SpMVParams struct {
	// MatrixBytes is the nominal CSR size (the paper sweeps 2-32 GB and
	// uses 1.0 GB + 123 MB vector on the single machine).
	MatrixBytes int64
	// NNZPerRow is the row density. When FixedRows is set it is derived
	// from MatrixBytes instead.
	NNZPerRow int
	// FixedRows pins the matrix dimension (and so the vector size) while
	// MatrixBytes grows via density — the paper's sweep keeps a ~123 MB
	// vector across matrix sizes.
	FixedRows int64
	// Iterations is the multiply count.
	Iterations  int
	Parallelism int
	// UseCache keeps the matrix blocks resident on the devices
	// (the Fig 8a ablation turns it off).
	UseCache bool
	// FromHDFS charges reading the matrix in the first iteration;
	// WriteResult writes the vector in the last (Fig 7b's setup).
	FromHDFS    bool
	WriteResult bool
	Seed        uint64
}

func (p *SpMVParams) defaults() {
	if p.FixedRows > 0 {
		nnz := (p.MatrixBytes/p.FixedRows - 4) / 8
		if nnz < 1 {
			nnz = 1
		}
		p.NNZPerRow = int(nnz)
	}
	if p.NNZPerRow == 0 {
		p.NNZPerRow = 16
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// Rows derives the square-matrix dimension from the nominal byte size
// (or returns the pinned dimension).
func (p SpMVParams) Rows() int64 {
	if p.FixedRows > 0 {
		return p.FixedRows
	}
	perRow := int64(p.NNZPerRow*8 + 4)
	return p.MatrixBytes / perRow
}

// spmvCol returns the column of the i-th non-zero of real row r.
func spmvCol(seed uint64, r int64, i, nReal int) int32 {
	return int32(mix(seed, uint64(r)*31+uint64(i)) % uint64(nReal))
}

// spmvPart is one partition's real CSR chunk.
type spmvPart struct {
	rowStart int
	rowPtr   []int32
	colIdx   []int32
	vals     []float32
}

// buildSpMVParts constructs the per-partition real CSR chunks. The
// matrix is row-stochastic-ish (values 1/nnzPerRow) so iterated
// products stay bounded.
func buildSpMVParts(p SpMVParams, par, nReal int) []spmvPart {
	parts := make([]spmvPart, par)
	rowsPer := nReal / par
	val := float32(1) / float32(p.NNZPerRow)
	for pi := 0; pi < par; pi++ {
		start := pi * rowsPer
		end := start + rowsPer
		if pi == par-1 {
			end = nReal
		}
		rows := end - start
		sp := spmvPart{rowStart: start}
		sp.rowPtr = make([]int32, rows+1)
		for r := 0; r < rows; r++ {
			for i := 0; i < p.NNZPerRow; i++ {
				sp.colIdx = append(sp.colIdx, spmvCol(p.Seed, int64(start+r), i, nReal))
				sp.vals = append(sp.vals, val)
			}
			sp.rowPtr[r+1] = int32(len(sp.colIdx))
		}
		parts[pi] = sp
	}
	return parts
}

func vectorChecksum(x []float32) float64 {
	var s float64
	for i, v := range x {
		s += float64(v) * float64(i%97+1)
	}
	return s
}

// initialVector is the deterministic starting x.
func initialVector(seed uint64, nReal int) []float32 {
	x := make([]float32, nReal)
	for i := range x {
		x[i] = unit(seed+42, uint64(i)) + 0.5
	}
	return x
}

// spmvPerNNZWork is the per-nonzero demand of the CPU multiply: Flink
// SpMV represents the matrix as (row, col, value) tuples, so the
// iterator model pays per-record overhead on every non-zero — the
// reason the paper's CPU baseline is so slow.
var spmvPerNNZWork = costmodel.Work{Flops: 40, BytesRead: 24}

// kernelRowsOf decodes a CSR block's row count from its header.
func kernelRowsOf(blk *core.Block) int32 {
	b := blk.Buf.Bytes()
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// SpMV runs the iterative multiply through the plan layer as one
// pipeline. The matrix source, the per-iteration multiply and the
// cleanup are Either nodes, so the mode places all three together: the
// CPU body keeps
// the CSR chunks as one-item engine partitions and multiplies through
// the iterator model; the GPU body encodes the chunks into cacheable
// device blocks and launches the CSR kernel, re-shipping x each
// iteration. The two modes reproduce the former SpMVCPU/SpMVGPU drivers
// exactly.
func SpMV(g *core.GFlink, p SpMVParams, opts plan.Options) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}
	par := p.Parallelism
	if par <= 0 {
		par = c.Parallelism()
	}
	rowsNominal := p.Rows()
	nReal := int(rowsNominal / g.Cfg.Config.ScaleDivisor)
	if nReal < par {
		nReal = par
	}
	parts := buildSpMVParts(p, par, nReal)
	x := initialVector(p.Seed, nReal)
	workers := g.Cfg.Config.Workers

	// Branch-local state: the CPU placement carries the CSR chunks as an
	// engine dataset, the GPU placement as encoded device blocks.
	var matrix *flink.Dataset[spmvPart]
	var gmatrix *flink.Dataset[*core.Block]
	var chunkRowStart [][]int

	gr := plan.NewGraph(g, "spmv-"+opts.Mode.String(), opts)
	plan.EitherDo(gr, "matrix",
		func(ctx *plan.Ctx) {
			// A one-item-per-partition dataset carrying the CSR chunks.
			chunkParts := make([]flink.Partition[spmvPart], par)
			rowsNomPer := rowsNominal / int64(par)
			for pi := range chunkParts {
				nom := rowsNomPer
				if pi == par-1 {
					nom = rowsNominal - rowsNomPer*int64(par-1)
				}
				chunkParts[pi] = flink.Partition[spmvPart]{Worker: pi % c.Cfg.Workers, Items: []spmvPart{parts[pi]}, Nominal: nom}
			}
			matrix = flink.FromPartitions(ctx.Job, p.NNZPerRow*8+4, chunkParts)
		},
		func(ctx *plan.Ctx) {
			// Encode each partition's CSR into off-heap blocks. Blocks are
			// multi-page (CSR chunks are not GStruct records, so the
			// page-straddling rule does not apply) but bounded in nominal bytes
			// so a single transfer can never exceed device memory.
			const maxNomBytesPerBlock = 256 << 20
			byteSchema := gstruct.MustNew("CSRByte", 1, gstruct.Field{Name: "b", Kind: gstruct.Uint8})
			blockParts := make([]flink.Partition[*core.Block], par)
			chunkRowStart = make([][]int, par) // real row offsets of each chunk
			rowsNomPer := rowsNominal / int64(par)
			for pi := range blockParts {
				worker := pi % c.Cfg.Workers
				sp := parts[pi]
				realRows := len(sp.rowPtr) - 1
				nomRows := rowsNomPer
				if pi == par-1 {
					nomRows = rowsNominal - rowsNomPer*int64(par-1)
				}
				nomBytes := nomRows * int64(p.NNZPerRow*8+4)
				chunks := int((nomBytes + maxNomBytesPerBlock - 1) / maxNomBytesPerBlock)
				if chunks > realRows {
					chunks = realRows
				}
				if chunks < 1 {
					chunks = 1
				}
				per := (realRows + chunks - 1) / chunks
				var blocks []*core.Block
				var nomDone int64
				for bi, r0 := 0, 0; r0 < realRows; bi, r0 = bi+1, r0+per {
					r1 := r0 + per
					if r1 > realRows {
						r1 = realRows
					}
					base := sp.rowPtr[r0]
					rowPtr := make([]int32, r1-r0+1)
					for i := range rowPtr {
						rowPtr[i] = sp.rowPtr[r0+i] - base
					}
					colIdx := sp.colIdx[base:sp.rowPtr[r1]]
					vals := sp.vals[base:sp.rowPtr[r1]]
					size := kernels.EncodedCSRSize(r1-r0, len(colIdx))
					buf := c.TaskManagers[worker].Pool.MustAllocate(size)
					kernels.EncodeCSR(buf.Bytes(), rowPtr, colIdx, vals)
					nom := nomBytes * int64(r1-r0) / int64(realRows)
					if r1 == realRows {
						nom = nomBytes - nomDone
					}
					nomDone += nom
					blocks = append(blocks, &core.Block{
						Schema: byteSchema, Layout: gstruct.AoS,
						Buf: buf, N: size, Nominal: nom,
						Partition: pi, Index: bi,
					})
					chunkRowStart[pi] = append(chunkRowStart[pi], r0)
				}
				blockParts[pi] = flink.Partition[*core.Block]{Worker: worker, Items: blocks, Nominal: nomRows}
			}
			gmatrix = flink.FromPartitions(ctx.Job, 1, blockParts)
		})
	iters := plan.Iterate(gr, "power", p.Iterations, func(it int, sub *plan.Graph) {
		plan.Do(sub, "stage-in", func(ctx *plan.Ctx) {
			if it == 0 && p.FromHDFS {
				// Fig 7b: the first iteration reads the matrix from HDFS.
				stageRead(g, ctx.Job, "spmv-matrix", p.MatrixBytes, par)
			}
		})
		plan.Do(sub, "allgather", func(ctx *plan.Ctx) {
			// The y parts of the previous iteration live on their workers:
			// every worker all-gathers the full vector.
			ctx.Job.AllGather(rowsNominal * 4)
		})
		plan.EitherDo(sub, "multiply",
			func(ctx *plan.Ctx) {
				j := ctx.Job
				xNow := x
				tm0 := c.Clock.Now()
				yParts := flink.ProcessPartitions(matrix, "multiply", 4, func(pi, worker int, in flink.Partition[spmvPart]) ([][]float32, int64) {
					j.ChargeCompute(in.Nominal*int64(p.NNZPerRow), spmvPerNNZWork)
					sp := in.Items[0]
					return [][]float32{kernels.CPUSpMV(sp.rowPtr, sp.colIdx, sp.vals, xNow)}, in.Nominal
				})
				res.MapPhase = c.Clock.Now() - tm0
				// y stays distributed (it feeds the next all-gather); the driver
				// materialization below is bookkeeping only.
				next := make([]float32, nReal)
				for pi := 0; pi < yParts.Partitions(); pi++ {
					copy(next[parts[pi].rowStart:], yParts.Partition(pi).Items[0])
				}
				x = next
			},
			func(ctx *plan.Ctx) {
				j := ctx.Job
				// Stage off-heap copies of x; the PCIe hop is charged on each
				// GWork's vector input.
				xBuf := c.TaskManagers[0].Pool.MustAllocate(4 * nReal)
				for i, v := range x {
					putRawF32(xBuf.Bytes(), i, v)
				}
				perWorker := core.StageBuffer(g, xBuf)
				// x crosses PCIe once per device per iteration via the cache.
				iterKey := core.CacheKey{JobID: j.ID, Partition: -2, Block: it}
				tm0 := c.Clock.Now()
				yParts := flink.ProcessPartitions(gmatrix, "gpu:multiply", 4, func(pi, worker int, in flink.Partition[*core.Block]) ([][]float32, int64) {
					sp := parts[pi]
					rows := len(sp.rowPtr) - 1
					pool := c.TaskManagers[worker].Pool
					y := make([]float32, rows)
					// One GWork per matrix chunk; all submitted before waiting so
					// the stream pipeline overlaps their stages.
					works := make([]*core.GWork, len(in.Items))
					outs := make([]*membuf.HBuffer, len(in.Items))
					for bi, blk := range in.Items {
						chunkRows := int(kernelRowsOf(blk))
						outBuf := pool.MustAllocate(4 * chunkRows)
						nomRows := in.Nominal * int64(chunkRows) / int64(rows)
						w := &core.GWork{
							ExecuteName: kernels.SpMVCSRKernel,
							Size:        chunkRows,
							Nominal:     nomRows,
							BlockSize:   256,
							GridSize:    (chunkRows + 255) / 256,
							In: []core.Input{
								{Buf: blk.Buf, Nominal: blk.Nominal, Cache: p.UseCache, Key: blk.Key(j.ID)},
								{Buf: perWorker[worker%workers], Nominal: rowsNominal * 4, Cache: p.UseCache, Key: iterKey},
							},
							Out:        outBuf,
							OutNominal: nomRows * 4,
							Args:       []int64{nomRows * int64(p.NNZPerRow), nomRows},
							JobID:      j.ID,
						}
						g.Manager(worker).Streams.Submit(w)
						works[bi] = w
						outs[bi] = outBuf
					}
					for bi, w := range works {
						if err := w.Wait(); err != nil {
							panic(err)
						}
						r0 := chunkRowStart[pi][bi]
						for r := 0; r < w.Size; r++ {
							y[r0+r] = rawF32(outs[bi].Bytes(), r)
						}
						outs[bi].Free()
					}
					return [][]float32{y}, in.Nominal
				})
				res.MapPhase = c.Clock.Now() - tm0
				// y stays distributed; driver materialization is bookkeeping.
				next := make([]float32, nReal)
				for pi := 0; pi < yParts.Partitions(); pi++ {
					copy(next[parts[pi].rowStart:], yParts.Partition(pi).Items[0])
				}
				x = next
				for _, b := range perWorker {
					b.Free()
				}
				xBuf.Free()
			})
		plan.Do(sub, "sink", func(ctx *plan.Ctx) {
			if it == p.Iterations-1 && p.WriteResult {
				// Fig 7b: the last iteration writes the vector to HDFS.
				writeResult(g, "spmv-output", rowsNominal*4)
			}
		})
	})
	plan.EitherDo(gr, "cleanup",
		func(ctx *plan.Ctx) {},
		func(ctx *plan.Ctx) {
			g.ReleaseJobCaches(ctx.Job.ID)
			core.FreeBlocks(gmatrix)
		})
	gr.Execute()

	res.Iterations = iters.Durations
	res.Total = c.Clock.Now() - start
	res.Checksum = vectorChecksum(x)
	return res
}

// SpMVCPU runs the baseline iterative multiply.
func SpMVCPU(g *core.GFlink, p SpMVParams) Result {
	return SpMV(g, p, plan.Options{Mode: plan.ForceCPU})
}

// SpMVGPU runs the GFlink multiply: each partition's CSR chunk is one
// cacheable device block; x is broadcast and transferred each
// iteration, exactly the traffic pattern Fig 8a's cache ablation
// measures.
func SpMVGPU(g *core.GFlink, p SpMVParams) Result {
	return SpMV(g, p, plan.Options{Mode: plan.ForceGPU})
}
