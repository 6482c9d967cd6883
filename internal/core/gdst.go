package core

import (
	"fmt"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
	"gflink/internal/membuf"
)

// Block is one page-sized chunk of a GDST: GStruct records stored as
// raw bytes in one off-heap HBuffer, never straddling the page boundary
// (Section 5.1), so the block can be DMA'd to a device as-is.
type Block struct {
	Schema *gstruct.Schema
	Layout gstruct.Layout
	Buf    *membuf.HBuffer
	// N is the real record count; Nominal the paper-scale count.
	N       int
	Nominal int64
	// Partition and Index form the default cache key.
	Partition, Index int
}

// View returns a typed accessor over the block's bytes.
func (b *Block) View() gstruct.View {
	return gstruct.MustView(b.Schema, b.Layout, b.Buf.Bytes(), b.N)
}

// BytesPerElem returns the per-record byte footprint under the block's
// layout.
func (b *Block) BytesPerElem() int { return b.Schema.Size(b.Layout, 1) }

// NominalBytes returns the block's paper-scale byte size — what the DMA
// engine is charged for.
func (b *Block) NominalBytes() int64 { return b.Nominal * int64(b.BytesPerElem()) }

// Key returns the block's default cache key within a job.
func (b *Block) Key(jobID int) CacheKey {
	return CacheKey{JobID: jobID, Partition: b.Partition, Block: b.Index}
}

// GDST is a GPU-based DST (Section 3.5.1): a distributed dataset of
// GStruct blocks.
type GDST = *flink.Dataset[*Block]

// NewGDST creates a GDST of nominal records of the given schema spread
// over parallelism partitions, splitting each partition into page-sized
// blocks. fill populates one whole block: element i of the view stands
// for nominal ordinal ord0 + i*step, which keeps generation
// deterministic under any scale divisor. Called once per block, a fill
// can write SoA blocks column by column (gstruct.View.Column).
func NewGDST(g *GFlink, j *flink.Job, schema *gstruct.Schema, layout gstruct.Layout, nominal int64, parallelism int, fill func(part int, v gstruct.View, ord0, step int64)) GDST {
	if parallelism <= 0 {
		parallelism = g.Cluster.Parallelism()
	}
	perElem := schema.Size(layout, 1)
	blockCap := membuf.ElemsPerPage(g.Cfg.Config.PageSize, perElem)
	if blockCap <= 0 {
		panic(fmt.Sprintf("core: %s records (%dB) larger than a page (%dB)", schema.Name(), perElem, g.Cfg.Config.PageSize))
	}
	div := g.Cfg.Config.ScaleDivisor
	per := nominal / int64(parallelism)
	parts := make([]flink.Partition[*Block], parallelism)
	for p := 0; p < parallelism; p++ {
		nomPart := per
		if p == parallelism-1 {
			nomPart = nominal - per*int64(parallelism-1)
		}
		realPart := nomPart / div
		if realPart == 0 && nomPart > 0 {
			realPart = 1
		}
		worker := p % g.Cfg.Config.Workers
		pool := g.Cluster.TaskManagers[worker].Pool
		var blocks []*Block
		var done int64
		var nomDone int64
		// A block must fit the page in real bytes AND represent a bounded
		// nominal payload: at paper scale the page rule would split it,
		// and the scale-down must not recombine blocks into device-sized
		// transfers.
		maxNomBytesPerBlock := g.Cfg.MaxBlockNominal
		if maxNomBytesPerBlock <= 0 {
			maxNomBytesPerBlock = 128 << 20
		}
		numBlocks := (realPart + int64(blockCap) - 1) / int64(blockCap)
		if byNom := (nomPart*int64(perElem) + maxNomBytesPerBlock - 1) / maxNomBytesPerBlock; byNom > numBlocks {
			numBlocks = byNom
		}
		if numBlocks > realPart {
			numBlocks = realPart
		}
		if numBlocks < 1 {
			numBlocks = 1
		}
		perBlockReal := (realPart + numBlocks - 1) / numBlocks
		if perBlockReal > int64(blockCap) {
			perBlockReal = int64(blockCap)
		}
		for bi := 0; done < realPart; bi++ {
			n := realPart - done
			if n > perBlockReal {
				n = perBlockReal
			}
			nom := nomPart * n / realPart
			if done+n == realPart {
				nom = nomPart - nomDone
			}
			buf := pool.MustAllocate(schema.Size(layout, int(n)))
			b := &Block{Schema: schema, Layout: layout, Buf: buf, N: int(n), Nominal: nom, Partition: p, Index: bi}
			fill(p, b.View(), done*div, div)
			blocks = append(blocks, b)
			done += n
			nomDone += nom
		}
		parts[p] = flink.Partition[*Block]{Worker: worker, Items: blocks, Nominal: nomPart}
	}
	return flink.FromPartitions(j, perElem, parts)
}

// GPUMapSpec configures a gpuMapPartition operator (the paper's
// GPU-based Mapper, Section 3.5.2): which kernel to run per block, the
// output shape, cache directives and extra inputs (e.g., broadcast
// variables such as KMeans centroids).
type GPUMapSpec struct {
	// Name labels the operator; Kernel is the registered kernel entry
	// (the GWork executeName).
	Name   string
	Kernel string
	// OutSchema and OutLayout shape the output blocks.
	OutSchema *gstruct.Schema
	OutLayout gstruct.Layout
	// OutElems maps input to output element counts; nil means identity
	// (a map); a constant function makes the operator a per-block
	// reducer.
	OutElems func(in int) int
	// CacheInput marks the input blocks for the GPU cache.
	CacheInput bool
	// Args are scalar kernel arguments.
	Args []int64
	// Extra supplies additional per-block inputs.
	Extra func(b *Block) []Input
	// FixedOutput marks the output as scale-independent (a per-block
	// reduction partial such as centroid sums): its nominal size equals
	// its real size instead of scaling with the input's nominal count.
	FixedOutput bool
}

// gpuMapBlockSize is the CUDA block size of every gpuMapPartition
// launch, as in Algorithm 3.1.
const gpuMapBlockSize = 256

// GPUMapPartition runs spec's kernel over every block of ds: each
// TaskManager task produces one GWork per block, submits them all to
// the worker's GStreamManager, then waits — the producer/consumer
// decoupling of Fig. 4. It returns the dataset of output blocks.
func GPUMapPartition(g *GFlink, ds GDST, spec GPUMapSpec) GDST {
	outElems := spec.OutElems
	if outElems == nil {
		outElems = func(in int) int { return in }
	}
	jobID := ds.Job().ID
	outPerElem := spec.OutSchema.Size(spec.OutLayout, 1)
	coalesce := costmodel.CoalesceFactor(spec.OutLayout.String())

	return flink.ProcessPartitions(ds, "gpu:"+spec.Name, outPerElem, func(p, worker int, part flink.Partition[*Block]) ([]*Block, int64) {
		blocks := part.Items
		mgr := g.Manager(worker)
		pool := g.Cluster.TaskManagers[worker].Pool
		// The producer iterates blocks, not elements: charge the
		// per-record overhead at nominal *block* granularity (the
		// execution-model fix of Section 3.1).
		if len(blocks) > 0 {
			// At paper scale the partition holds nominal/page-capacity
			// blocks (Section 5.1: one block per memory page); the real
			// block count is a scale-down artifact and must not drive the
			// charge.
			pageElems := maxI64(1, int64(membuf.ElemsPerPage(g.Cfg.Config.PageSize, blocks[0].BytesPerElem())))
			nominalBlocks := (part.Nominal + pageElems - 1) / pageElems
			ds.Job().ChargeCompute(nominalBlocks, costmodel.Work{})
		}
		works := make([]*GWork, len(blocks))
		outs := make([]*Block, len(blocks))
		// One backing array holds the partition's output block headers.
		outHdrs := make([]Block, len(blocks))
		wp := mgr.Streams.Pool()
		ptx := spec.Kernel + ".ptx"
		var outNominalTotal int64
		for i, b := range blocks {
			on := outElems(b.N)
			outNominal := b.Nominal
			if spec.FixedOutput {
				outNominal = int64(on)
			} else if b.N > 0 {
				outNominal = b.Nominal * int64(on) / int64(b.N)
			}
			if on > 0 && outNominal == 0 {
				outNominal = int64(on)
			}
			outBuf := pool.MustAllocate(spec.OutSchema.Size(spec.OutLayout, on))
			outHdrs[i] = Block{
				Schema:    spec.OutSchema,
				Layout:    spec.OutLayout,
				Buf:       outBuf,
				N:         on,
				Nominal:   outNominal,
				Partition: b.Partition,
				Index:     b.Index,
			}
			outs[i] = &outHdrs[i]
			// Pooled shell: the producer recycles GWork allocations across
			// blocks (and partitions) instead of allocating one per block.
			w := wp.Get()
			w.PtxPath = ptx
			w.ExecuteName = spec.Kernel
			w.Size = b.N
			w.Nominal = b.Nominal
			w.BlockSize = gpuMapBlockSize
			w.GridSize = (b.N + gpuMapBlockSize - 1) / gpuMapBlockSize
			w.Out = outBuf
			w.OutNominal = outNominal * int64(outPerElem)
			w.Args = spec.Args
			w.Coalesce = coalesce
			w.JobID = jobID
			w.In = append(w.In, projectInput(g, spec.Kernel, b, Input{
				Buf:     b.Buf,
				Nominal: b.NominalBytes(),
				Cache:   spec.CacheInput,
				Key:     b.Key(jobID),
			}, spec.Args))
			if spec.Extra != nil {
				w.In = append(w.In, spec.Extra(b)...)
			}
			works[i] = w
			mgr.Streams.Submit(w)
		}
		for i, w := range works {
			if err := w.Wait(); err != nil {
				panic(fmt.Sprintf("core: GWork %s on block %d failed: %v", spec.Kernel, i, err))
			}
			wp.Put(w)
			works[i] = nil
		}
		for _, ob := range outs {
			outNominalTotal += ob.Nominal
		}
		return outs, outNominalTotal
	})
}

// projectInput applies SoA column projection to a block-backed GWork
// input: when the deployment enables projection, the block is SoA, and
// the kernel's registered field-use declaration reads a strict subset
// of the schema, the input ships (and caches) only the referenced byte
// ranges at their original offsets — nominal volume, cache key and real
// copy all shrink together. Otherwise the input is returned unchanged,
// keeping the default path byte-identical. It is effective only when
// projection is enabled, and writes no buffer byte (invariant 9).
func projectInput(g *GFlink, kernel string, b *Block, in Input, args []int64) Input {
	if !g.Cfg.EnableProjection || b.Layout != gstruct.SoA || b.Schema.NumFields() > gstruct.MaxCols {
		return in
	}
	reads, ok := gpu.KernelReads(kernel, b.Schema, args)
	if !ok || b.Schema.Covers(reads) {
		return in
	}
	ranges := b.Schema.SoAColumnRanges(reads, b.N)
	cr := make([]gpu.CopyRange, len(ranges))
	for i, r := range ranges {
		cr[i] = gpu.CopyRange{Off: r.Off, Len: r.Len}
	}
	in.Nominal = b.Nominal * int64(b.Schema.ProjectedElemBytes(reads))
	in.Ranges = cr
	in.Key.Cols = reads
	return in
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// GPUReducePartition is gpuMapPartition with a fixed-size output per
// block (the paper's GPU-based Reducer): each block reduces to
// partialElems records which the caller combines (typically on the
// driver).
func GPUReducePartition(g *GFlink, ds GDST, spec GPUMapSpec, partialElems int) GDST {
	spec.OutElems = func(int) int { return partialElems }
	spec.FixedOutput = true
	return GPUMapPartition(g, ds, spec)
}

// CollectBlocks gathers all blocks to the driver (paying the network
// cost of their nominal bytes).
func CollectBlocks(ds GDST) []*Block {
	return flink.Collect(ds)
}

// FreeBlocks returns every block's off-heap buffer to its pool. Use
// when intermediate datasets are dead (Flink's managed memory release).
func FreeBlocks(ds GDST) {
	for p := 0; p < ds.Partitions(); p++ {
		for _, b := range ds.Partition(p).Items {
			if !b.Buf.Freed() {
				b.Buf.Free()
			}
		}
	}
}

// StageBuffer places per-worker copies of a value that is already
// distributed on the cluster (state kept between supersteps, whose
// network redistribution is charged separately via Job.AllGather or
// Job.ShuffleBytes). No network time is charged; the caller still pays
// PCIe when the buffers feed GWork inputs.
func StageBuffer(g *GFlink, src *membuf.HBuffer) []*membuf.HBuffer {
	out := make([]*membuf.HBuffer, g.Cfg.Config.Workers)
	for w := range out {
		dst := g.Cluster.TaskManagers[w].Pool.MustAllocate(src.Size())
		copy(dst.Bytes(), src.Bytes())
		out[w] = dst
	}
	return out
}

// BroadcastBuffer ships a driver-built HBuffer to every worker (e.g.,
// the centroids of a KMeans iteration), charging the network cost, and
// returns per-worker copies. The returned buffers belong to each
// worker's pool.
func BroadcastBuffer(g *GFlink, j *flink.Job, src *membuf.HBuffer, nominalBytes int64) []*membuf.HBuffer {
	g.Cluster.Net.Exchange("bcastbuf", j.Scatter(nominalBytes))
	return StageBuffer(g, src)
}
