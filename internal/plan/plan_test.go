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

// TestModePlace pins the placement rule the plan and stream layers
// share: forced modes ignore the estimates, and Auto takes the GPU only
// when it is strictly cheaper.
func TestModePlace(t *testing.T) {
	for _, tc := range []struct {
		mode     Mode
		cpu, gpu time.Duration
		want     Device
	}{
		{ForceCPU, 2, 1, CPU},
		{ForceGPU, 1, 2, GPU},
		{Auto, 2, 1, GPU},
		{Auto, 1, 2, CPU},
		{Auto, 1, 1, CPU},
	} {
		if got := tc.mode.Place(tc.cpu, tc.gpu); got != tc.want {
			t.Errorf("%v.Place(cpu %v, gpu %v) = %v, want %v", tc.mode, tc.cpu, tc.gpu, got, tc.want)
		}
	}
}

func TestForcedPlacementSelectsBody(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want Device
	}{{ForceCPU, CPU}, {ForceGPU, GPU}} {
		g := testDeployment()
		var ran Device = -1
		g.Run(func() {
			gr := NewGraph(g, "placed", Options{Mode: tc.mode})
			gr.PlaceGroup("stage", costmodel.StageCost{})
			EitherDo(gr, "stage", "stage",
				func(ctx *Ctx) { ran = CPU },
				func(ctx *Ctx) { ran = GPU })
			gr.Execute()
			if d, ok := gr.Placement("stage"); !ok || d != tc.want {
				t.Errorf("mode %v: placement reported (%v,%v), want %v", tc.mode, d, ok, tc.want)
			}
		})
		if ran != tc.want {
			t.Errorf("mode %v ran the %v body", tc.mode, ran)
		}
	}
}

func TestAutoPlacementFollowsCostModel(t *testing.T) {
	g := testDeployment()
	gpuFavored := costmodel.StageCost{
		Records:        50_000_000,
		CPUPerRec:      costmodel.Work{Flops: 100, BytesRead: 64},
		GPUWork:        costmodel.Work{Flops: 5e9},
		HostToDevice:   64 << 20,
		Executions:     10,
		CacheResident:  true,
		CPUParallelism: 8,
		GPUParallelism: 4,
	}
	cpuFavored := costmodel.StageCost{
		Records:        100,
		CPUPerRec:      costmodel.Work{Flops: 4},
		GPUWork:        costmodel.Work{Flops: 400},
		HostToDevice:   1 << 30,
		CPUParallelism: 8,
		GPUParallelism: 4,
	}
	g.Run(func() {
		gr := NewGraph(g, "auto", Options{})
		gr.PlaceGroup("hot", gpuFavored)
		gr.PlaceGroup("cold", cpuFavored)
		var hot, cold Device
		EitherDo(gr, "hot", "hot", func(ctx *Ctx) { hot = CPU }, func(ctx *Ctx) { hot = GPU })
		EitherDo(gr, "cold", "cold", func(ctx *Ctx) { cold = CPU }, func(ctx *Ctx) { cold = GPU })
		gr.Execute()
		if hot != GPU {
			t.Error("compute-dense cached stage not placed on GPU")
		}
		if cold != CPU {
			t.Error("transfer-dominated tiny stage not placed on CPU")
		}
	})
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

func TestUndeclaredGroupPanics(t *testing.T) {
	g := testDeployment()
	g.Run(func() {
		gr := NewGraph(g, "bad", Options{})
		EitherDo(gr, "stage", "missing", func(ctx *Ctx) {}, func(ctx *Ctx) {})
		defer func() {
			if recover() == nil {
				t.Error("executing an Either with an undeclared group did not panic")
			}
		}()
		gr.Execute()
	})
}
