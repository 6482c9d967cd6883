package workloads

import (
	"fmt"
	"strings"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// WordCountParams configures the WordCount benchmark: the only batch
// (one-pass) workload of Table 1, whose HDFS scan makes it I/O-bound
// (the ~1.1x speedup of Fig 5c).
type WordCountParams struct {
	// Bytes is the nominal input size (24-56 GB in the paper).
	Bytes       int64
	Parallelism int
	Seed        uint64
}

const (
	// wcVocab is the distinct-word table size.
	wcVocab = 4096
	// wcLineBytes is the average record length.
	wcLineBytes = 100
)

// wcLine deterministically generates the text line at nominal ordinal
// ord: skewed word ids joined by spaces, padded to ~wcLineBytes.
func wcLine(seed uint64, ord int64) string {
	var b strings.Builder
	i := 0
	for b.Len() < wcLineBytes-8 {
		m := mix(seed, uint64(ord)*97+uint64(i))
		// Product skew: low word ids are much more frequent.
		id := int((m % wcVocab) * ((m >> 32) % wcVocab) / wcVocab)
		fmt.Fprintf(&b, "w%d ", id)
		i++
	}
	return b.String()
}

// wcChecksum fingerprints a count table indexed by slot. Slots are
// summed in slot order: float addition is not associative, so the order
// is part of the checksum.
func wcChecksum(counts []uint32) float64 {
	var s float64
	for slot, n := range counts {
		s += float64(slot+1) * float64(n)
	}
	return s
}

// wcPair is one (slot, count) shuffle record.
type wcPair struct {
	Slot  int
	Count uint32
}

// WordCount runs the benchmark through the plan layer as one pipeline:
// HDFS source, an Either tokenize stage (iterator-model CPU body vs
// tokenizing-kernel GPU body), the count shuffle, and the output write.
// The two modes reproduce the former WordCountCPU/WordCountGPU drivers
// exactly.
func WordCount(g *core.GFlink, p WordCountParams, opts plan.Options) Result {
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}
	var counts []uint32
	var tm0 time.Duration

	gr := plan.NewGraph(g, "wordcount-"+opts.Mode.String(), opts)
	lines := plan.Source(gr, "wc-input", func(ctx *plan.Ctx) *flink.Dataset[string] {
		c.FS.Create("wc-input", p.Bytes)
		// The scan cost is identical on both placements.
		lines, err := flink.ReadHDFS(ctx.Job, "wc-input", p.Parallelism, wcLineBytes, func(split int, ord int64) string {
			return wcLine(p.Seed, ord)
		})
		if err != nil {
			panic(err)
		}
		tm0 = c.Clock.Now()
		return lines
	})
	tables := plan.Either(lines, "tokenize",
		func(ctx *plan.Ctx, in *flink.Dataset[string]) *flink.Dataset[wcPair] {
			return tokenizeCPU(ctx.Job, in, p)
		},
		func(ctx *plan.Ctx, in *flink.Dataset[string]) *flink.Dataset[wcPair] {
			return tokenizeGPU(ctx.G, ctx.Job, in, p)
		})
	reduced := plan.ReduceByKey(tables, "sumCounts", costmodel.Work{Flops: 2},
		func(pr wcPair) int { return pr.Slot },
		func(a, b wcPair) wcPair { return wcPair{Slot: a.Slot, Count: a.Count + b.Count} })
	plan.Collect(reduced, "counts", func(ctx *plan.Ctx, recs []wcPair) {
		counts = make([]uint32, wcVocab)
		for _, pr := range recs {
			counts[pr.Slot] += pr.Count
		}
		res.MapPhase = c.Clock.Now() - tm0
		flinkWriteCounts(g, wcVocab)
	})
	gr.Execute()

	res.Total = c.Clock.Now() - start
	res.Checksum = wcChecksum(counts)
	return res
}

// WordCountCPU runs the baseline WordCount: scan HDFS, tokenize through
// the iterator model, shuffle counts, write the result.
func WordCountCPU(g *core.GFlink, p WordCountParams) Result {
	return WordCount(g, p, plan.Options{Mode: plan.ForceCPU})
}

// WordCountGPU runs the GFlink WordCount: text blocks go to the
// tokenizing kernel; the shuffle and I/O stay on the engine, which is
// why the speedup is modest.
func WordCountGPU(g *core.GFlink, p WordCountParams) Result {
	return WordCount(g, p, plan.Options{Mode: plan.ForceGPU})
}

// tokenizeCPU tokenizes and counts per partition on the engine. The
// iterator model pays per-word record overhead plus the scan cost
// (HiBench text averages ~12 bytes per word including the separator).
func tokenizeCPU(j *flink.Job, lines *flink.Dataset[string], p WordCountParams) *flink.Dataset[wcPair] {
	wordsPerLine := float64(wcLineBytes) / 12.0
	return flink.ProcessPartitions(lines, "tokenize", 12, func(pi, worker int, in flink.Partition[string]) ([]wcPair, int64) {
		nominalWords := int64(float64(in.Nominal) * wordsPerLine)
		j.ChargeCompute(nominalWords, costmodel.Work{Flops: 14, BytesRead: 7})
		text := strings.Join(in.Items, " ")
		table := kernels.CPUWordCount([]byte(text), wcVocab)
		var pairs []wcPair
		for slot, cnt := range table {
			if cnt > 0 {
				pairs = append(pairs, wcPair{Slot: slot, Count: cnt})
			}
		}
		return pairs, int64(wcVocab)
	})
}

// tokenizeGPU ships each partition's text to the tokenizing kernel and
// reads back the dense count table.
func tokenizeGPU(g *core.GFlink, j *flink.Job, lines *flink.Dataset[string], p WordCountParams) *flink.Dataset[wcPair] {
	return flink.ProcessPartitions(lines, "gpu:tokenize", 12, func(pi, worker int, in flink.Partition[string]) ([]wcPair, int64) {
		text := []byte(strings.Join(in.Items, " "))
		pool := g.Cluster.TaskManagers[worker].Pool
		inBuf := pool.MustAllocate(len(text) + 1)
		copy(inBuf.Bytes(), text)
		outBuf := pool.MustAllocate(4 * wcVocab)
		nominalBytes := in.Nominal * int64(wcLineBytes)
		w := &core.GWork{
			ExecuteName: kernels.WordCountKernel,
			Size:        len(text),
			Nominal:     nominalBytes,
			BlockSize:   256,
			GridSize:    (len(text) + 255) / 256,
			In:          []core.Input{{Buf: inBuf, Nominal: nominalBytes}},
			Out:         outBuf,
			OutNominal:  int64(4 * wcVocab),
			Args:        []int64{int64(wcVocab)},
			JobID:       j.ID,
		}
		g.Manager(worker).Streams.Submit(w)
		if err := w.Wait(); err != nil {
			panic(err)
		}
		var pairs []wcPair
		for slot := 0; slot < wcVocab; slot++ {
			if cnt := rawU32(outBuf.Bytes(), slot); cnt > 0 {
				pairs = append(pairs, wcPair{Slot: slot, Count: cnt})
			}
		}
		inBuf.Free()
		outBuf.Free()
		return pairs, int64(wcVocab)
	})
}

// flinkWriteCounts writes the reduced table to HDFS.
func flinkWriteCounts(g *core.GFlink, vocab int) {
	g.Cluster.FS.Write(0, "wc-output", int64(vocab*12))
}

// rawU32 reads the i-th little-endian uint32 of buf.
func rawU32(buf []byte, i int) uint32 {
	return uint32(buf[i*4]) | uint32(buf[i*4+1])<<8 | uint32(buf[i*4+2])<<16 | uint32(buf[i*4+3])<<24
}
