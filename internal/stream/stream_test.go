package stream_test

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/kernels"
	"gflink/internal/obs"
	"gflink/internal/plan"
	"gflink/internal/stream"
)

func build(workers int) *core.GFlink {
	return core.New(core.Config{
		Config: flink.Config{
			Workers:        workers,
			SlotsPerWorker: 4,
			Model:          costmodel.Default(),
		},
		GPUsPerWorker: 1,
	})
}

// runPipeline builds a two-worker source→window→sink pipeline with the
// given options and returns its result.
func runPipeline(t *testing.T, records int64, opts ...stream.Option) stream.Result {
	t.Helper()
	g := build(2)
	var res stream.Result
	g.Run(func() {
		p := stream.New(g, "test", opts...)
		p.Source("gen", 0, stream.SourceSpec{Records: records, Seed: 7}).
			Window("agg", 1, stream.WindowSpec{Records: 512, Slots: 64}).
			Sink("out", 0)
		res = p.Run()
	})
	return res
}

// TestZeroCreditProducerBlocks is the backpressure unit test: with a
// one-batch buffer and a consumer slower than the source, the producer
// must run out of credits, block on the virtual clock, and resume when
// the consumer's grant comes back — visible as positive credits-blocked
// time on a run that still processes every record.
func TestZeroCreditProducerBlocks(t *testing.T) {
	res := runPipeline(t, 4096,
		stream.WithMode(plan.ForceCPU), stream.WithBufferBatches(1))
	if res.Records != 4096 {
		t.Fatalf("source produced %d records, want 4096", res.Records)
	}
	if res.Blocked <= 0 {
		t.Errorf("producer never blocked on credits (blocked=%v); backpressure did not engage", res.Blocked)
	}
	if res.MaxDepth > 1 {
		t.Errorf("edge depth reached %d batches with a 1-batch credit limit", res.MaxDepth)
	}
	if res.Windows != 8 {
		t.Errorf("fired %d windows, want 8 (4096 records / 512-record tumble)", res.Windows)
	}
}

// TestBlockedCounterExported checks the stream.blockedns counter (the
// -check signal of abl-backpressure) reflects the blocking the result
// reports.
func TestBlockedCounterExported(t *testing.T) {
	g := build(2)
	var res stream.Result
	g.Run(func() {
		p := stream.New(g, "test", stream.WithMode(plan.ForceCPU), stream.WithBufferBatches(1))
		p.Source("gen", 0, stream.SourceSpec{Records: 4096, Seed: 7}).
			Window("agg", 1, stream.WindowSpec{Records: 512, Slots: 64}).
			Sink("out", 0)
		res = p.Run()
	})
	blocked := g.Obs.Metrics().Total("stream.blockedns")
	if blocked != int64(res.Blocked) {
		t.Errorf("stream.blockedns total = %d, result reports %d", blocked, int64(res.Blocked))
	}
	if got := g.Obs.Metrics().Get("stream.records.s0"); got != 4096 {
		t.Errorf("stream.records.s0 = %d, want 4096", got)
	}
	if got := g.Obs.Metrics().Get("stream.depthmax.s0"); got != res.MaxDepth {
		t.Errorf("stream.depthmax.s0 = %d, result reports %d", got, res.MaxDepth)
	}
}

// TestDeeperBufferBlocksLess pins the mechanism the abl-backpressure
// curve rests on: more credits, less producer blocking, no fewer
// records.
func TestDeeperBufferBlocksLess(t *testing.T) {
	shallow := runPipeline(t, 8192, stream.WithMode(plan.ForceCPU), stream.WithBufferBatches(1))
	deep := runPipeline(t, 8192, stream.WithMode(plan.ForceCPU), stream.WithBufferBatches(16))
	if deep.Blocked >= shallow.Blocked {
		t.Errorf("16-batch buffer blocked %v, 1-batch buffer %v; want strictly less", deep.Blocked, shallow.Blocked)
	}
	if deep.Makespan >= shallow.Makespan {
		t.Errorf("16-batch makespan %v not below 1-batch %v", deep.Makespan, shallow.Makespan)
	}
}

// TestCPUAndGPUWindowsBitIdentical: both window bodies replay the same
// float additions in the same order, so the sink checksum must match
// bit for bit across placements.
func TestCPUAndGPUWindowsBitIdentical(t *testing.T) {
	cpu := runPipeline(t, 8192, stream.WithMode(plan.ForceCPU))
	gpu := runPipeline(t, 8192, stream.WithMode(plan.ForceGPU))
	if math.Float64bits(cpu.Checksum) != math.Float64bits(gpu.Checksum) {
		t.Errorf("checksums differ across placement: CPU %v, GPU %v", cpu.Checksum, gpu.Checksum)
	}
	if cpu.Records != gpu.Records || cpu.Windows != gpu.Windows {
		t.Errorf("record/window counts differ: CPU %d/%d, GPU %d/%d",
			cpu.Records, cpu.Windows, gpu.Records, gpu.Windows)
	}
}

// splitmix64 and unitValue replay the source's generator: record i of
// a source keyed by seed is (h % keys, unitValue(h)), h = splitmix64(seed, i).
func splitmix64(seed, x uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(x+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func unitValue(h uint64) float32 { return float32(h>>40) / float32(1<<24) }

// referenceChecksum replays the source, packs each tumbling window as
// (slot uint32, value float32) pairs, aggregates it with
// kernels.CPUWindowAgg, and folds the slot sums in the order the sink
// receives them. It returns the checksum and the window count.
func referenceChecksum(seed uint64, records int64, keys, width, slots int) (float64, int64) {
	packed := make([]byte, 8*width)
	sums := make([]float32, slots)
	var checksum float64
	var windows int64
	for start := int64(0); start < records; start += int64(width) {
		n := int(min(int64(width), records-start))
		for i := 0; i < n; i++ {
			h := splitmix64(seed, uint64(start)+uint64(i))
			binary.LittleEndian.PutUint32(packed[8*i:], uint32(h%uint64(keys)%uint64(slots)))
			binary.LittleEndian.PutUint32(packed[8*i+4:], math.Float32bits(unitValue(h)))
		}
		clear(sums)
		kernels.CPUWindowAgg(packed, n, slots, sums)
		for slot, v := range sums {
			checksum += float64(v) * float64(slot+1)
		}
		windows++
	}
	return checksum, windows
}

// TestWindowMatchesReference checks each placement, under every source
// body this CPU has, against an independent replay through
// kernels.CPUWindowAgg, so a packing or folding bug shared by both
// placements cannot hide behind their agreement with each other.
func TestWindowMatchesReference(t *testing.T) {
	cases := []struct {
		name                               string
		records                            int64
		keys, batch, width, slots, credits int
	}{
		{"window-not-multiple-of-batch", 4000, 1024, 97, 1000, 100, 3},
		{"window-smaller-than-batch", 2048, 1000, 256, 100, 7, 1},
		{"partial-tail-window", 4321, 1024, 256, 1024, 256, 3},
		{"one-record-batches", 50, 13, 1, 7, 5, 1},
	}
	for _, tc := range cases {
		want, windows := referenceChecksum(7, tc.records, tc.keys, tc.width, tc.slots)
		for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				for _, body := range stream.GenerateBodies() {
					t.Run(body, func(t *testing.T) {
						defer stream.UseGenerateBody(body)()
						g := build(2)
						var res stream.Result
						g.Run(func() {
							p := stream.New(g, "test", stream.WithMode(mode),
								stream.WithBatchRecords(tc.batch), stream.WithBufferBatches(tc.credits))
							p.Source("gen", 0, stream.SourceSpec{Records: tc.records, Keys: tc.keys, Seed: 7}).
								Window("agg", 1, stream.WindowSpec{Records: tc.width, Slots: tc.slots}).
								Sink("out", 0)
							res = p.Run()
						})
						if math.Float64bits(res.Checksum) != math.Float64bits(want) {
							t.Errorf("checksum %v, reference %v", res.Checksum, want)
						}
						if res.Records != tc.records || res.Windows != windows {
							t.Errorf("records/windows = %d/%d, want %d/%d", res.Records, res.Windows, tc.records, windows)
						}
						if res.MaxDepth > int64(tc.credits) {
							t.Errorf("edge depth %d exceeds %d credits", res.MaxDepth, tc.credits)
						}
					})
				}
			})
		}
	}
}

// runParks bounds the coroutine parks of one Pipeline.Run, all of them
// its caller's: it may park in the job submission, and it parks
// waiting for the drain. Every stage and courier is a task, so none of
// them parks, and the bound does not grow with the records.
const runParks = 2

// checkPipeline runs a two-worker source→window→sink pipeline and
// checks it against the reference replay: the sink checksum bit for
// bit, record and window conservation at every stage, the credit cap
// on edge depth, one credit grant per batch sent on each edge, and at
// most runParks coroutine parks in Run.
func checkPipeline(t *testing.T, seed uint64, records int64, keys, batch, width, slots, credits int, mode plan.Mode) {
	t.Helper()
	want, windows := referenceChecksum(seed, records, keys, width, slots)
	g := build(2)
	clock := g.Cluster.Clock
	var res stream.Result
	var parks uint64
	g.Run(func() {
		p := stream.New(g, "test", stream.WithMode(mode),
			stream.WithBatchRecords(batch), stream.WithBufferBatches(credits))
		p.Source("gen", 0, stream.SourceSpec{Records: records, Keys: keys, Seed: seed}).
			Window("agg", 1, stream.WindowSpec{Records: width, Slots: slots}).
			Sink("out", 0)
		parks = clock.Parks()
		res = p.Run()
		parks = clock.Parks() - parks
	})
	if parks > runParks {
		t.Errorf("Run parked %d times, want at most %d: a stage or courier parks", parks, runParks)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Errorf("checksum %v, reference %v", res.Checksum, want)
	}
	if res.Records != records || res.Windows != windows {
		t.Errorf("records/windows = %d/%d, want %d/%d", res.Records, res.Windows, records, windows)
	}
	m := g.Obs.Metrics()
	if got := m.Get("stream.records.s1"); got != records {
		t.Errorf("window stage consumed %d records, source produced %d", got, records)
	}
	if got, want := m.Get("stream.records.s2"), windows*int64(slots); got != want {
		t.Errorf("sink received %d aggregates, want %d windows x %d slots", got, windows, slots)
	}
	if res.MaxDepth > int64(credits) {
		t.Errorf("edge depth %d exceeds %d credits", res.MaxDepth, credits)
	}
	for _, s := range []string{"s0", "s1"} {
		if grants, batches := m.Get("stream.grants."+s), m.Get("stream.batches."+s); grants != batches {
			t.Errorf("stream.grants.%s = %d, stream.batches.%s = %d; a credit was lost or duplicated", s, grants, s, batches)
		}
	}
}

// FuzzPipeline randomizes the pipeline's shape and placement and holds
// a run under every source body to checkPipeline. The seed corpus covers the
// TestWindowMatchesReference shapes, the power-of-two shape of the
// stream-window benchmark, and one key and one slot, so the slot and
// key reductions run both their mask and their % branch.
func FuzzPipeline(f *testing.F) {
	for _, gpu := range []bool{false, true} {
		f.Add(uint64(7), uint16(4000), uint16(1024), uint16(97), uint16(1000), uint16(100), uint8(3), gpu)
		f.Add(uint64(7), uint16(2048), uint16(1000), uint16(256), uint16(100), uint16(7), uint8(1), gpu)
		f.Add(uint64(7), uint16(4321), uint16(1024), uint16(256), uint16(1024), uint16(256), uint8(3), gpu)
		f.Add(uint64(7), uint16(50), uint16(13), uint16(1), uint16(7), uint16(5), uint8(1), gpu)
		f.Add(uint64(7), uint16(8192), uint16(1024), uint16(256), uint16(1024), uint16(256), uint8(4), gpu)
		f.Add(uint64(3), uint16(3000), uint16(1), uint16(64), uint16(512), uint16(1), uint8(2), gpu)
		f.Add(uint64(11), uint16(777), uint16(1), uint16(1), uint16(100), uint16(1), uint8(1), gpu)
	}
	f.Fuzz(func(t *testing.T, seed uint64, records, keys, batch, width, slots uint16, credits uint8, gpu bool) {
		// span maps v onto [1, hi], leaving values already in range
		// unchanged, so the seed shapes run as written.
		span := func(v, hi int) int { return 1 + (max(v, 1)-1)%hi }
		n, w := span(int(records), 8192), span(int(width), 2048)
		sl := span(int(slots), 512)
		// Bound the sink's traffic (windows x slots aggregates) so one
		// input stays a few milliseconds.
		if windows := (n + w - 1) / w; windows*sl > 1<<15 {
			sl = max(1, (1<<15)/windows)
		}
		mode := plan.ForceCPU
		if gpu {
			mode = plan.ForceGPU
		}
		for _, body := range stream.GenerateBodies() {
			restore := stream.UseGenerateBody(body)
			checkPipeline(t, seed, int64(n), span(int(keys), 1<<16), span(int(batch), 512), w, sl, span(int(credits), 8), mode)
			restore()
		}
	})
}

// TestStreamSteadyStateZeroAllocs pins the tracing-off record path as
// allocation-free at steady state under both placements: quadrupling
// the windows a run fires may add fewer than one heap allocation per
// hundred extra windows. Both measured pipelines run inside one
// deployment, after a warm-up pipeline, and each is counted from its
// Run alone. Under the race detector, sync.Pool drops a random share of
// its Puts, so construction code that formats names with fmt allocates
// a varying number of objects; and a collection cycle that starts
// mid-Run adds allocations of its own. Counting Run alone, with the
// collector off, leaves only the growth with the window count. The
// count is of the whole process, so each length is run three times and
// its fewest allocations kept: an allocation from outside the run only
// ever adds to one of them.
func TestStreamSteadyStateZeroAllocs(t *testing.T) {
	const width, windows = 1024, 100
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
		g := build(2)
		g.Obs.Tracer().SetEnabled(false)
		var short, long int64
		g.Run(func() {
			mallocs := func(w int64) int64 {
				p := stream.New(g, "test", stream.WithMode(mode))
				p.Source("gen", 0, stream.SourceSpec{Records: w * width, Seed: 7}).
					Window("agg", 1, stream.WindowSpec{Records: width, Slots: 256}).
					Sink("out", 0)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				p.Run()
				runtime.ReadMemStats(&after)
				return int64(after.Mallocs - before.Mallocs)
			}
			mallocs(windows)
			short, long = math.MaxInt64, math.MaxInt64
			for i := 0; i < 3; i++ {
				short, long = min(short, mallocs(windows)), min(long, mallocs(4*windows))
			}
		})
		if extra := int64(3 * windows); (long-short)*100 >= extra {
			t.Errorf("%v: %d windows made %d allocations, %d windows %d: %d more for %d extra windows, want fewer than %d",
				mode, windows, short, 4*windows, long, long-short, extra, extra/100)
		}
	}
}

// BenchmarkPipelineRecords measures the host cost of the stream layer
// per record on the backpressure shape (1024-record windows over 256
// slots, default batches and credits), tracing off, and the coroutine
// parks per record of the whole deployment run.
func BenchmarkPipelineRecords(b *testing.B) {
	const records = 1_000_000
	for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
		b.Run(mode.String(), func(b *testing.B) {
			var parks uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := build(2)
				g.Obs.Tracer().SetEnabled(false)
				b.StartTimer()
				g.Run(func() {
					p := stream.New(g, "bench", stream.WithMode(mode))
					p.Source("gen", 0, stream.SourceSpec{Records: records, Seed: 7}).
						Window("agg", 1, stream.WindowSpec{Records: 1024, Slots: 256}).
						Sink("out", 0)
					p.Run()
				})
				parks += g.Cluster.Clock.Parks()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			b.ReportMetric(float64(parks)/float64(b.N*records), "parks/record")
		})
	}
}

// TestStreamParksNothing pins that no stage or courier parks: under
// both placements and at one and four credits, a deployment run parks
// its coroutines as often at 4N records as at N.
func TestStreamParksNothing(t *testing.T) {
	const n = 8 * 1024
	parks := func(mode plan.Mode, credits int, records int64) uint64 {
		g := build(2)
		g.Obs.Tracer().SetEnabled(false)
		g.Run(func() {
			p := stream.New(g, "test", stream.WithMode(mode), stream.WithBufferBatches(credits))
			p.Source("gen", 0, stream.SourceSpec{Records: records, Seed: 7}).
				Window("agg", 1, stream.WindowSpec{Records: 1024, Slots: 256}).
				Sink("out", 0)
			p.Run()
		})
		return g.Cluster.Clock.Parks()
	}
	for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
		for _, credits := range []int{1, 4} {
			if short, long := parks(mode, credits, n), parks(mode, credits, 4*n); short != long {
				t.Errorf("%v, %d credits: %d parks at %d records, %d at %d", mode, credits, short, n, long, 4*n)
			}
		}
	}
}

// TestPipelineDeterministic: identical pipelines on fresh deployments
// produce identical results and span streams, with the window on the
// GPU path.
func TestPipelineDeterministic(t *testing.T) {
	run := func() (stream.Result, interface{}) {
		g := build(2)
		var res stream.Result
		g.Run(func() {
			p := stream.New(g, "test", stream.WithMode(plan.ForceGPU), stream.WithBufferBatches(2))
			p.Source("gen", 0, stream.SourceSpec{Records: 4096, Seed: 7}).
				Window("agg", 1, stream.WindowSpec{Records: 512, Slots: 64}).
				Sink("out", 0)
			res = p.Run()
		})
		return res, g.Obs.Tracer().Spans()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 {
		t.Errorf("results differ across identical runs:\n  %+v\n  %+v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("span streams differ across identical runs")
	}
}

// TestSpanAttrsInOrder pins the attributes of a CPU-placed window's
// stage span and of the pipeline span, keys and values in order, so a
// reordering fails here by name rather than only as a golden trace
// hash mismatch.
func TestSpanAttrsInOrder(t *testing.T) {
	g := build(2)
	var res stream.Result
	g.Run(func() {
		p := stream.New(g, "test", stream.WithMode(plan.ForceCPU), stream.WithBufferBatches(2))
		p.Source("gen", 0, stream.SourceSpec{Records: 4096, Seed: 7}).
			Window("agg", 1, stream.WindowSpec{Records: 512, Slots: 64}).
			Sink("out", 0)
		res = p.Run()
	})
	want := map[string][]obs.Attr{
		"agg": {
			obs.Str("kind", "window"),
			obs.Int("worker", 1),
			obs.Int("records", 4096),
			obs.Str("placed", "CPU"),
		},
		"stream:test": {
			obs.Str("mode", "cpu"),
			obs.Int("batch_records", 256),
			obs.Int("buffer_batches", 2),
			obs.Int("stages", 3),
			obs.Int("records", 4096),
			obs.Dur("blocked", res.Blocked),
		},
	}
	for _, sp := range g.Obs.Tracer().Spans() {
		attrs, ok := want[sp.Name]
		if !ok {
			continue
		}
		delete(want, sp.Name)
		if !slices.Equal(sp.Attrs, attrs) {
			t.Errorf("span %s attrs:\n got  %v\n want %v", sp.Name, sp.Attrs, attrs)
		}
	}
	if len(want) > 0 {
		t.Errorf("no span recorded for %v", want)
	}
}

// TestOptionsDefaults pins the documented defaults and the functional-
// option plumbing.
func TestOptionsDefaults(t *testing.T) {
	g := build(1)
	p := stream.New(g, "test")
	o := p.Options()
	if o.BatchRecords != 256 || o.BufferBatches != 4 {
		t.Errorf("defaults = %+v, want BatchRecords 256, BufferBatches 4", o)
	}
	if o.Mode != plan.ForceCPU {
		t.Errorf("default mode = %v, want ForceCPU", o.Mode)
	}
	p2 := stream.New(g, "test",
		stream.WithMode(plan.ForceGPU), stream.WithBatchRecords(128),
		stream.WithBufferBatches(9))
	o2 := p2.Options()
	if o2.Mode != plan.ForceGPU || o2.BatchRecords != 128 || o2.BufferBatches != 9 {
		t.Errorf("options not applied: %+v", o2)
	}
}

// TestThroughputReported sanity-checks the derived fields.
func TestThroughputReported(t *testing.T) {
	res := runPipeline(t, 4096, stream.WithMode(plan.ForceGPU))
	if res.Makespan <= 0 {
		t.Fatalf("non-positive makespan %v", res.Makespan)
	}
	want := float64(res.Records) / res.Makespan.Seconds()
	if math.Abs(res.Throughput-want) > 1e-9*want {
		t.Errorf("throughput %v, want %v", res.Throughput, want)
	}
	if res.Makespan > time.Hour {
		t.Errorf("implausible makespan %v", res.Makespan)
	}
}

// TestRunFreesStagingBuffers runs a window pipeline under each
// placement and requires every TaskManager pool's in-use pages back at
// their value before the run: Run frees each window stage's packed
// input and slot-table buffers once the stream drains.
func TestRunFreesStagingBuffers(t *testing.T) {
	for _, mode := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
		g := build(2)
		inUse := func() []int {
			pages := make([]int, len(g.Cluster.TaskManagers))
			for w, tm := range g.Cluster.TaskManagers {
				pages[w] = tm.Pool.Stats().InUsePages
			}
			return pages
		}
		before := inUse()
		g.Run(func() {
			p := stream.New(g, "test", stream.WithMode(mode))
			p.Source("gen", 0, stream.SourceSpec{Records: 8192, Seed: 7}).
				Window("agg", 1, stream.WindowSpec{Records: 1024, Slots: 256}).
				Window("agg2", 0, stream.WindowSpec{Records: 2, Slots: 64}).
				Sink("out", 0)
			p.Run()
		})
		if after := inUse(); !slices.Equal(after, before) {
			t.Errorf("%v: in-use pages per worker pool: %v after the run, %v before", mode, after, before)
		}
	}
}
