package workloads

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
)

// PageRankParams configures the PageRank benchmark (Fig 5b). Each
// superstep computes per-partition rank contributions (GPU-offloadable)
// and aggregates them across the cluster (a network shuffle that stays
// on the engine and bounds the end-to-end speedup, as the paper's
// Observation 1 predicts for shuffle-heavy jobs).
type PageRankParams struct {
	// Pages is the nominal node count (5-25 million in the paper).
	Pages int64
	// EdgesPerPage is the average out-degree.
	EdgesPerPage int
	// Iterations is the superstep count.
	Iterations  int
	Parallelism int
	UseCache    bool
	Seed        uint64
}

func (p *PageRankParams) defaults() {
	if p.EdgesPerPage == 0 {
		p.EdgesPerPage = 8
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// prDamping is the PageRank damping factor.
const prDamping = 0.85

// prEdge generates the e-th real edge of partition part. Destinations
// follow a product-skew (power-law-like) distribution, as web graphs
// do, which is what makes map-side combining effective.
func prEdge(seed uint64, part int, ord int64, nReal int) [2]int32 {
	h := mix(seed+uint64(part)*1_000_003, uint64(ord))
	un := uint64(nReal)
	src := int32(h % un)
	dst := int32(((h >> 24) % un) * ((h >> 44) % un) / un)
	return [2]int32{src, dst}
}

// prCPUEdgeWork is the per-edge demand of the baseline contribution
// map: the join probe, tuple construction and combiner emission Flink's
// join-based PageRank performs per edge on the JVM.
var prCPUEdgeWork = costmodel.Work{Flops: 1450, BytesRead: 600}

// graphSetup holds what both variants share: partition real-edge sets
// and global out-degrees.
type graphSetup struct {
	nReal    int
	par      int
	edges    [][][2]int32 // per partition
	outdeg   []int32
	nomParts []int64 // nominal edges per partition
}

func buildGraph(seed uint64, nodes int64, edgesPer int, par int, div int64) graphSetup {
	nReal := int(nodes / div)
	if nReal < 2 {
		nReal = 2
	}
	m := nodes * int64(edgesPer)
	per := m / int64(par)
	gs := graphSetup{nReal: nReal, par: par, outdeg: make([]int32, nReal)}
	for p := 0; p < par; p++ {
		nom := per
		if p == par-1 {
			nom = m - per*int64(par-1)
		}
		real := nom / div
		if real == 0 && nom > 0 {
			real = 1
		}
		es := make([][2]int32, real)
		for i := int64(0); i < real; i++ {
			es[i] = prEdge(seed, p, i*div, nReal)
			gs.outdeg[es[i][0]]++
		}
		gs.edges = append(gs.edges, es)
		gs.nomParts = append(gs.nomParts, nom)
	}
	return gs
}

func ranksChecksum(r []float32) float64 {
	var s float64
	for i, v := range r {
		s += float64(v) * float64(i%89+1)
	}
	return s
}

// PageRankCPU runs the baseline PageRank.
func PageRankCPU(g *core.GFlink, p PageRankParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("pagerank-cpu")
	par := p.Parallelism
	if par <= 0 {
		par = c.Parallelism()
	}
	gs := buildGraph(p.Seed, p.Pages, p.EdgesPerPage, par, g.Cfg.Config.ScaleDivisor)
	edgeParts := make([]flink.Partition[[][2]int32], par)
	for pi := range edgeParts {
		edgeParts[pi] = flink.Partition[[][2]int32]{Worker: pi % c.Cfg.Workers, Items: [][][2]int32{gs.edges[pi]}, Nominal: gs.nomParts[pi]}
	}
	edges := flink.FromPartitions(j, 8, edgeParts)
	ranks := make([]float32, gs.nReal)
	for i := range ranks {
		ranks[i] = 1 / float32(gs.nReal)
	}
	res := Result{}
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		// Redistribute ranks to the edge partitions (the join shuffle of
		// Flink's PageRank; ~2 copies of the rank vector cross the wire).
		j.ShuffleBytes(p.Pages * 4 * 2)
		rNow := ranks
		tm0 := c.Clock.Now()
		pairs := flink.ProcessPartitions(edges, "contrib", nodeValBytes, func(pi, worker int, in flink.Partition[[][2]int32]) ([]nodeVal, int64) {
			j.ChargeCompute(in.Nominal, prCPUEdgeWork)
			dense := kernels.CPUPageRankContrib(in.Items[0], rNow, gs.outdeg, gs.nReal)
			return densePairsF32(dense, p.Pages, in.Nominal)
		})
		res.MapPhase = c.Clock.Now() - tm0
		merged := shuffleSumPairs(pairs, gs.nReal)
		ranks = kernels.ApplyDamping(merged, prDamping, gs.nReal)
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	res.Total = c.Clock.Now() - start
	res.Checksum = ranksChecksum(ranks)
	return res
}

// PageRankGPU runs the GFlink PageRank: cached edge blocks, per-block
// contribution kernel, engine-side aggregation.
func PageRankGPU(g *core.GFlink, p PageRankParams) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	j := c.NewJob("pagerank-gpu")
	par := p.Parallelism
	if par <= 0 {
		par = c.Parallelism()
	}
	gs := buildGraph(p.Seed, p.Pages, p.EdgesPerPage, par, g.Cfg.Config.ScaleDivisor)
	byteSchema := gstruct.MustNew("EdgeBlock", 4, gstruct.Field{Name: "e", Kind: gstruct.Int32, Len: 2})
	blockParts := make([]flink.Partition[*core.Block], par)
	for pi := range blockParts {
		worker := pi % c.Cfg.Workers
		es := gs.edges[pi]
		buf := c.TaskManagers[worker].Pool.MustAllocate(8 * len(es))
		for i, e := range es {
			putRawF32asI32(buf.Bytes(), i*2, e[0])
			putRawF32asI32(buf.Bytes(), i*2+1, e[1])
		}
		blk := &core.Block{
			Schema: byteSchema, Layout: gstruct.AoS,
			Buf: buf, N: len(es), Nominal: gs.nomParts[pi],
			Partition: pi, Index: 0,
		}
		blockParts[pi] = flink.Partition[*core.Block]{Worker: worker, Items: []*core.Block{blk}, Nominal: gs.nomParts[pi]}
	}
	blocks := flink.FromPartitions(j, 8, blockParts)
	ranks := make([]float32, gs.nReal)
	for i := range ranks {
		ranks[i] = 1 / float32(gs.nReal)
	}
	res := Result{}
	workers := g.Cfg.Config.Workers
	// The out-degree array is static: stage it per worker once and let
	// the devices cache it.
	degBuf := c.TaskManagers[0].Pool.MustAllocate(4 * gs.nReal)
	for i, d := range gs.outdeg {
		putRawF32asI32(degBuf.Bytes(), i, d)
	}
	degPerWorker := core.StageBuffer(g, degBuf)
	for it := 0; it < p.Iterations; it++ {
		t0 := c.Clock.Now()
		// Same join shuffle as the CPU path; the PCIe hop to the devices
		// is charged on the GWork inputs below.
		j.ShuffleBytes(p.Pages * 4 * 2)
		rankBuf := c.TaskManagers[0].Pool.MustAllocate(4 * gs.nReal)
		for i, r := range ranks {
			putRawF32(rankBuf.Bytes(), i, r)
		}
		perWorker := core.StageBuffer(g, rankBuf)
		iterKey := core.CacheKey{JobID: j.ID, Partition: -2, Block: it}
		tm0 := c.Clock.Now()
		pairs := flink.ProcessPartitions(blocks, "gpu:contrib", nodeValBytes, func(pi, worker int, in flink.Partition[*core.Block]) ([]nodeVal, int64) {
			blk := in.Items[0]
			pool := c.TaskManagers[worker].Pool
			outBuf := pool.MustAllocate(4 * gs.nReal)
			w := &core.GWork{
				ExecuteName: kernels.PageRankContribKernel,
				Size:        blk.N,
				Nominal:     blk.Nominal,
				BlockSize:   256,
				GridSize:    (blk.N + 255) / 256,
				In: []core.Input{
					{Buf: blk.Buf, Nominal: blk.Nominal * 8, Cache: p.UseCache, Key: blk.Key(j.ID)},
					// Fresh ranks cross PCIe once per GPU per superstep
					// (later works on the same device hit the cache).
					{Buf: perWorker[worker%workers], Nominal: p.Pages * 4, Cache: p.UseCache, Key: iterKey},
					{Buf: degPerWorker[worker%workers], Nominal: p.Pages * 4, Cache: p.UseCache, Key: core.CacheKey{JobID: j.ID, Partition: -1, Block: 0}},
				},
				Out: outBuf,
				// The kernel emits compacted contributions: at most one
				// per edge, never more than the node count.
				OutNominal: minI64(blk.Nominal, p.Pages) * 4,
				Args:       []int64{int64(gs.nReal)},
				JobID:      j.ID,
			}
			g.Manager(worker).Streams.Submit(w)
			if err := w.Wait(); err != nil {
				panic(err)
			}
			dense := make([]float32, gs.nReal)
			for i := range dense {
				dense[i] = rawF32(outBuf.Bytes(), i)
			}
			outBuf.Free()
			return densePairsF32(dense, p.Pages, in.Nominal)
		})
		res.MapPhase = c.Clock.Now() - tm0
		merged := shuffleSumPairs(pairs, gs.nReal)
		ranks = kernels.ApplyDamping(merged, prDamping, gs.nReal)
		for _, b := range perWorker {
			b.Free()
		}
		rankBuf.Free()
		j.Superstep()
		res.Iterations = append(res.Iterations, c.Clock.Now()-t0)
	}
	for _, b := range degPerWorker {
		b.Free()
	}
	degBuf.Free()
	g.ReleaseJobCaches(j.ID)
	for pi := range blockParts {
		blockParts[pi].Items[0].Buf.Free()
	}
	res.Total = c.Clock.Now() - start
	res.Checksum = ranksChecksum(ranks)
	return res
}

// putRawF32asI32 writes a little-endian int32 at index i.
func putRawF32asI32(buf []byte, i int, v int32) {
	buf[i*4] = byte(v)
	buf[i*4+1] = byte(v >> 8)
	buf[i*4+2] = byte(v >> 16)
	buf[i*4+3] = byte(v >> 24)
}
