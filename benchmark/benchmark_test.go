package main

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/workloads"
)

// smallWorkloads are the benchmark's workloads at a size that runs in
// well under a second each: same deployments and code paths, less data.
func smallWorkloads() []*workload {
	return []*workload{
		kmeansWorkload("kmeans-cluster",
			workloads.Spec{Workers: 2, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 2000},
			workloads.KMeansParams{Points: 8_000_000, Iterations: 3, UseCache: true, FromHDFS: true, WriteResult: true}),
		kmeansWorkload("kmeans-ooc",
			workloads.Spec{Workers: 1, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 5000, HostTierBytes: 2 << 30},
			workloads.KMeansParams{Points: 60_000_000, Iterations: 3, UseCache: true}),
		gworkWorkload("gwork-small", 3, 300),
		streamWorkload("stream-window", 100_000),
	}
}

// quick runs one repetition of each phase.
var quick = options{seed: 3, seconds: 0}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range def.Workloads {
		want = append(want, w.Name)
	}
	for i, w := range allWorkloads {
		got = append(got, w.name)
		if small := smallWorkloads()[i]; small.name != w.name {
			t.Errorf("small workload %d is %q, want %q", i, small.name, w.name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestEveryMetricPrinted runs each workload untraced and traced and
// checks that every metric BENCHMARK.json defines is printed with its
// unit, that nothing else is reported, and that every check passes.
func TestEveryMetricPrinted(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		defs := def.EndToEnd
		if traced {
			defs = def.PerLayer
		}
		for _, w := range smallWorkloads() {
			o := quick
			o.traced = traced
			res := measure(w, o)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed", w.name, traced, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			printResult(&out, res)
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
					continue
				}
				if v.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, v.Unit, m.Unit)
				}
				line := fmt.Sprintf("%s %s %.6g %s\n", w.name, m.Name, v.Value, m.Unit)
				if !strings.Contains(out.String(), line) {
					t.Errorf("%s: output lacks %q", w.name, line)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json defines %d", w.name, traced, len(res.Metrics), len(defs))
			}
			if !strings.Contains(out.String(), w.name+" error_rate 0 ratio") {
				t.Errorf("%s: output lacks a zero error_rate:\n%s", w.name, out.String())
			}
		}
	}
}

// TestCorruptOutputFails proves each workload's checks fire: a wrong
// kernel result or a perturbed checksum must count as a failure.
func TestCorruptOutputFails(t *testing.T) {
	for _, w := range smallWorkloads() {
		o := quick
		o.corrupt = true
		res := measure(w, o)
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted output passed all %d checks", w.name, res.Attempted)
		}
	}
}

// TestTracedRunReproducesUntraced: tracing must change no simulated
// result and no checksum.
func TestTracedRunReproducesUntraced(t *testing.T) {
	for _, w := range smallWorkloads() {
		plain, err := runRep(w, 5, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(w, 5, true, false, newSpanLog())
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(plain.out, traced.out) {
			t.Errorf("%s: traced run differs: makespan %v vs %v, checksum %v vs %v",
				w.name, traced.out.makespan, plain.out.makespan, traced.out.checksum, plain.out.checksum)
		}
		if len(traced.profile) == 0 || traced.sim == nil || plain.sim != nil {
			t.Errorf("%s: only the traced run should carry a profile and span metrics", w.name)
		}
	}
}

// spin burns CPU in this package so the profile has samples to charge.
func spin(n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		x = splitmix64(x, uint64(i))
	}
	return x
}

var sink uint64

// TestProfileBuckets decodes a real CPU profile and checks that every
// sample is charged to exactly one known bucket, that the buckets add up
// to the profile's total, and that the benchmark's own code lands in
// "bench".
func TestProfileBuckets(t *testing.T) {
	prof, err := withProfile(func() { sink = spin(60_000_000) })
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile has no samples")
	}
	buckets, total := bucketProfile(samples)
	var sum int64
	for l, ns := range buckets {
		if !slices.Contains(hostLayers, l) {
			t.Errorf("sample charged to unknown bucket %q", l)
		}
		sum += ns
	}
	var direct int64
	for _, s := range samples {
		direct += s.ns
	}
	if sum != total || total != direct {
		t.Errorf("buckets sum to %d, total %d, samples %d", sum, total, direct)
	}
	if buckets["bench"] < total/2 {
		t.Errorf("spin loop charged %d of %d ns to bench: %v", buckets["bench"], total, buckets)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "gflink/internal/core.(*GStreamManager).Submit", "main.driveGWorks"}, "core"},
		{[]string{"gflink/internal/vclock.(*Queue[...]).Get", "gflink/internal/stream.(*stage).runSink"}, "vclock"},
		{[]string{"gflink/internal/kernels.init.func3", "gflink/internal/gpu.(*Device).Launch"}, "kernels"},
		{[]string{"main.spin", "main.TestProfileBuckets.func1"}, "bench"},
		{[]string{"gflink/benchmark.driveGWorks"}, "bench"},
		{[]string{"gflink/internal/analysis.Run"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"runtime.sysmon", "runtime.mstart"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "host_wall_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		base, head []float64
		want       string
	}{
		{[]float64{1, 1, 1, 1}, []float64{1.05, 1.05, 1.05, 1.05}, "ok"},
		{[]float64{1, 1, 1, 1}, []float64{1.2, 1.2, 1.2, 1.2}, "regression"},
		{[]float64{0.7, 1, 1.3, 1.6}, []float64{1.4, 1.4, 1.4, 1.4}, "unresolved"},
		{[]float64{1, 1.1, 1.2, 1.3}, []float64{0.5, 0.6, 0.7, 0.8}, "better"},
	} {
		if _, got := verdict(lower, c.base, c.head); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.base, c.head, got, c.want)
		}
	}
}
