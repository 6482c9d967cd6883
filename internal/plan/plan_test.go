package plan

import (
	"reflect"
	"testing"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
)

func testDeployment() *core.GFlink {
	return core.New(core.Config{
		Config: flink.Config{
			Workers:      2,
			Model:        costmodel.Default(),
			ScaleDivisor: 1000,
		},
		GPUsPerWorker: 2,
		GPUProfile:    costmodel.C2050,
	})
}

// numbersPipeline builds the canonical narrow chain used across the
// tests: generate -> map -> map -> filter -> map, collected at the
// driver.
func numbersPipeline(g *core.GFlink, opts Options, out *[]int64) (*Graph, *Stream[int64]) {
	gr := NewGraph(g, "numbers", opts)
	src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
		return flink.Generate(ctx.Job, "nums", 1_000_000, 8, 8, func(part int, ord int64) int64 {
			return int64(part)*1000 + ord
		})
	})
	w := costmodel.Work{Flops: 2, BytesRead: 8}
	a := Map(src, "double", w, 8, func(v int64) int64 { return v * 2 })
	b := Map(a, "inc", w, 8, func(v int64) int64 { return v + 1 })
	c := Filter(b, "odd", w, func(v int64) bool { return v%2 == 1 })
	d := Map(c, "neg", w, 8, func(v int64) int64 { return -v })
	Collect(d, "drain", func(ctx *Ctx, recs []int64) { *out = recs })
	return gr, d
}

func TestBuildIsDeferredAndExecuteSubmits(t *testing.T) {
	g := testDeployment()
	total := g.Run(func() {
		var out []int64
		start := g.Clock.Now()
		gr, _ := numbersPipeline(g, Options{}, &out)
		if built := g.Clock.Now() - start; built != 0 {
			t.Errorf("graph building charged %v of virtual time, want 0", built)
		}
		gr.Execute()
		if len(out) == 0 {
			t.Error("pipeline produced no records")
		}
	})
	if total < g.Cfg.Config.Model.Overheads.JobSubmit {
		t.Errorf("execute did not charge job submission: total %v", total)
	}
}

func TestChainingPreservesRecordsAndReducesTime(t *testing.T) {
	g1 := testDeployment()
	var chainedOut []int64
	var chained time.Duration
	g1.Run(func() {
		gr, _ := numbersPipeline(g1, Options{}, &chainedOut)
		t0 := g1.Clock.Now()
		gr.Execute()
		chained = g1.Clock.Now() - t0
	})

	g2 := testDeployment()
	var unchainedOut []int64
	var unchained time.Duration
	g2.Run(func() {
		gr, _ := numbersPipeline(g2, Options{DisableChaining: true}, &unchainedOut)
		t0 := g2.Clock.Now()
		gr.Execute()
		unchained = g2.Clock.Now() - t0
	})

	if !reflect.DeepEqual(chainedOut, unchainedOut) {
		t.Fatalf("fused chain changed the records: %d vs %d collected",
			len(chainedOut), len(unchainedOut))
	}
	if chained >= unchained {
		t.Errorf("chaining did not reduce simulated time: %v >= %v", chained, unchained)
	}
}

func TestChainedNominalAndRecordBytesMatchEager(t *testing.T) {
	runMeta := func(disable bool) (nominal int64, recBytes int) {
		g := testDeployment()
		g.Run(func() {
			gr := NewGraph(g, "meta", Options{DisableChaining: disable})
			src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
				return flink.Generate(ctx.Job, "nums", 100_000, 8, 4, func(part int, ord int64) int64 {
					return ord
				})
			})
			a := Map(src, "widen", costmodel.Work{}, 16, func(v int64) int64 { return v })
			b := Filter(a, "half", costmodel.Work{}, func(v int64) bool { return v%2000 == 0 })
			Sink(b, "probe", func(ctx *Ctx, d *flink.Dataset[int64]) {
				nominal = d.NominalCount()
				recBytes = d.RecordBytes()
			})
			gr.Execute()
		})
		return nominal, recBytes
	}
	fn, fb := runMeta(false)
	un, ub := runMeta(true)
	if fn != un || fb != ub {
		t.Errorf("fused metadata differs from eager: nominal %d/%d, recordBytes %d/%d", fn, un, fb, ub)
	}
	if fb != 16 {
		t.Errorf("filter did not carry the map's record size: %d", fb)
	}
}

// TestForcedPlacementSelectsBody runs each kind of Either node under
// both modes: the driver-side EitherDo, the dataset Either, and an
// Either inside an Iterate subgraph, built only once the parent graph
// is executing. Each must run exactly the mode's body, every time.
func TestForcedPlacementSelectsBody(t *testing.T) {
	const iters = 2
	for _, tc := range []struct {
		mode        Mode
		want, other Device
	}{{ForceCPU, CPU, GPU}, {ForceGPU, GPU, CPU}} {
		g := testDeployment()
		ran := map[Device]map[string]int{CPU: {}, GPU: {}}
		g.Run(func() {
			gr := NewGraph(g, "placed", Options{Mode: tc.mode})
			EitherDo(gr, "driver",
				func(ctx *Ctx) { ran[CPU]["driver"]++ },
				func(ctx *Ctx) { ran[GPU]["driver"]++ })
			src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
				return flink.Generate(ctx.Job, "nums", 1000, 8, 8, func(part int, ord int64) int64 { return ord })
			})
			body := func(d Device, stage string) func(*Ctx, *flink.Dataset[int64]) *flink.Dataset[int64] {
				return func(ctx *Ctx, in *flink.Dataset[int64]) *flink.Dataset[int64] {
					ran[d][stage]++
					return in
				}
			}
			Sink(Either(src, "dataset", body(CPU, "dataset"), body(GPU, "dataset")),
				"drop", func(ctx *Ctx, d *flink.Dataset[int64]) {})
			Iterate(gr, "loop", iters, func(it int, sub *Graph) {
				src := Source(sub, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
					return flink.Generate(ctx.Job, "nums", 1000, 8, 8, func(part int, ord int64) int64 { return ord })
				})
				Sink(Either(src, "sub", body(CPU, "sub"), body(GPU, "sub")),
					"drop", func(ctx *Ctx, d *flink.Dataset[int64]) {})
			})
			gr.Execute()
		})
		want := map[string]int{"driver": 1, "dataset": 1, "sub": iters}
		if !reflect.DeepEqual(ran[tc.want], want) || len(ran[tc.other]) != 0 {
			t.Errorf("mode %v: %v bodies ran %v, %v bodies ran %v; want %v on %v only",
				tc.mode, tc.want, ran[tc.want], tc.other, ran[tc.other], want, tc.want)
		}
	}
}

func TestDriverNodeBreaksChain(t *testing.T) {
	// A Do node between two maps must keep its program-order position:
	// the clock time it observes sits after the first map's charge and
	// before the second's.
	g := testDeployment()
	g.Run(func() {
		gr := NewGraph(g, "probe", Options{})
		src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
			return flink.Generate(ctx.Job, "nums", 1_000_000, 8, 4, func(part int, ord int64) int64 {
				return ord
			})
		})
		w := costmodel.Work{Flops: 2}
		a := Map(src, "one", w, 8, func(v int64) int64 { return v + 1 })
		var mark time.Duration
		Do(gr, "mark", func(ctx *Ctx) { mark = g.Clock.Now() })
		b := Map(a, "two", w, 8, func(v int64) int64 { return v + 1 })
		var done time.Duration
		Collect(b, "drain", func(ctx *Ctx, recs []int64) { done = g.Clock.Now() })
		gr.Execute()
		if mark <= 0 || mark >= done {
			t.Errorf("probe did not observe its program position: mark=%v done=%v", mark, done)
		}
	})
}

func TestIterateRunsSupersteps(t *testing.T) {
	g := testDeployment()
	const iters = 3
	var stats *IterStats
	g.Run(func() {
		gr := NewGraph(g, "loop", Options{})
		count := 0
		stats = Iterate(gr, "body", iters, func(it int, sub *Graph) {
			Do(sub, "tick", func(ctx *Ctx) { count++ })
		})
		gr.Execute()
		if count != iters {
			t.Errorf("iterate ran body %d times, want %d", count, iters)
		}
	})
	if len(stats.Durations) != iters {
		t.Fatalf("got %d iteration durations, want %d", len(stats.Durations), iters)
	}
	sync := costmodel.Default().Overheads.SuperstepSync
	for i, d := range stats.Durations {
		if d < sync {
			t.Errorf("iteration %d (%v) shorter than the superstep barrier %v", i, d, sync)
		}
	}
}
