package plan

import (
	"reflect"
	"strings"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/obs"
)

func TestExecuteEmitsDriverSpans(t *testing.T) {
	g := testDeployment()
	g.Run(func() {
		var out []int64
		gr, _ := numbersPipeline(g, Options{}, &out)
		gr.Execute()
	})
	spans := g.Obs.Tracer().Spans()
	if len(spans) == 0 {
		t.Fatal("Execute recorded no spans")
	}
	byName := map[string]obs.Span{}
	var stages, plans int
	for _, s := range spans {
		if s.Track != driverTrack {
			continue
		}
		byName[s.Name] = s
		switch s.Cat {
		case "stage":
			stages++
		case "plan":
			plans++
		}
	}
	if plans != 1 {
		t.Errorf("got %d plan spans, want 1", plans)
	}
	// Chaining fuses double+inc+odd+neg: source, chain, collect = 3.
	if stages != 3 {
		t.Errorf("got %d stage spans, want 3 (source, fused chain, collect)", stages)
	}
	p, ok := byName["plan:numbers"]
	if !ok {
		t.Fatal("missing plan:numbers span")
	}
	attrs := map[string]any{}
	for _, a := range p.Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["mode"] != "cpu" || attrs["chaining"] != true {
		t.Errorf("plan span attrs = %v", attrs)
	}
	var chain obs.Span
	found := false
	for _, s := range spans {
		if s.Track == driverTrack && strings.HasPrefix(s.Name, "chain:") {
			chain, found = s, true
		}
	}
	if !found {
		t.Fatal("missing fused-chain span")
	}
	cattrs := map[string]any{}
	for _, a := range chain.Attrs {
		cattrs[a.Key] = a.Val
	}
	if cattrs["kind"] != "chain" || cattrs["fused"] != int64(4) {
		t.Errorf("chain span attrs = %v, want kind=chain fused=4", cattrs)
	}
}

// TestEitherSpanCarriesPlacement pins an Either node's stage span to
// exactly two attributes, its kind and the device the mode placed it on.
func TestEitherSpanCarriesPlacement(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want string
	}{{ForceCPU, "CPU"}, {ForceGPU, "GPU"}} {
		g := testDeployment()
		g.Run(func() {
			gr := NewGraph(g, "either", Options{Mode: tc.mode})
			src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
				return flink.Generate(ctx.Job, "nums", 1000, 8, 8, func(part int, ord int64) int64 { return ord })
			})
			res := Either(src, "compute",
				func(ctx *Ctx, in *flink.Dataset[int64]) *flink.Dataset[int64] { return in },
				func(ctx *Ctx, in *flink.Dataset[int64]) *flink.Dataset[int64] { return in })
			Sink(res, "drop", func(ctx *Ctx, d *flink.Dataset[int64]) {})
			gr.Execute()
		})
		var either *obs.Span
		for _, s := range g.Obs.Tracer().Spans() {
			if s.Name == "either:compute" {
				e := s
				either = &e
			}
		}
		if either == nil {
			t.Fatal("missing either:compute span")
		}
		want := []obs.Attr{obs.Str("kind", "either"), obs.Str("placed", tc.want)}
		if !reflect.DeepEqual(either.Attrs, want) {
			t.Errorf("mode %v: either attrs = %v, want %v", tc.mode, either.Attrs, want)
		}
	}
}

func TestExplain(t *testing.T) {
	g := testDeployment()
	var report string
	g.Run(func() {
		gr := NewGraph(g, "explained", Options{Mode: ForceCPU})
		src := Source(gr, "nums", func(ctx *Ctx) *flink.Dataset[int64] {
			return flink.Generate(ctx.Job, "nums", 1000, 8, 8, func(part int, ord int64) int64 { return ord })
		})
		w := costmodel.Work{Flops: 2, BytesRead: 8}
		a := Map(src, "double", w, 8, func(v int64) int64 { return v * 2 })
		b := Map(a, "inc", w, 8, func(v int64) int64 { return v + 1 })
		res := Either(b, "compute",
			func(ctx *Ctx, in *flink.Dataset[int64]) *flink.Dataset[int64] { return in },
			func(ctx *Ctx, in *flink.Dataset[int64]) *flink.Dataset[int64] { return in })
		Sink(res, "drop", func(ctx *Ctx, d *flink.Dataset[int64]) {})
		gr.Execute()
		report = gr.Explain()
	})
	for _, want := range []string{
		`plan "explained" (mode=cpu, chaining=on)`,
		"stages:",
		"chain:double:inc", "[fused x2]",
		"either:compute", "[placed CPU]",
		"measured:",
		"source:nums",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("Explain() missing %q in:\n%s", want, report)
		}
	}
	// Explain before execution must work too (no measured section).
	g2 := testDeployment()
	gr2 := NewGraph(g2, "pre", Options{})
	pre := gr2.Explain()
	if strings.Contains(pre, "measured:") {
		t.Errorf("unexecuted plan reports measurements:\n%s", pre)
	}
	if !strings.Contains(pre, `plan "pre" (mode=cpu, chaining=on)`) {
		t.Errorf("Explain() header wrong:\n%s", pre)
	}
}
