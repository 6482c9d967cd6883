package workloads

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"gflink/internal/plan"
)

// The pre-refactor eager drivers produced these exact results (same
// deployment, same parameters). Pinning them as literals makes the
// planned pipelines' equivalence a regression test, not a tautology:
// forced-CPU and forced-GPU plans must reproduce the eager engine's
// virtual-clock trace byte for byte, nanosecond for nanosecond.
var eagerGolden = map[string]Result{
	"wc-cpu": {Total: 3751324438, MapPhase: 410442318, Checksum: 4.9375816e+07},
	"wc-gpu": {Total: 3395827966, MapPhase: 54945846, Checksum: 4.9375816e+07},
	"km-cpu": {Total: 2438583990, MapPhase: 39071418, Checksum: 32105.33296060562,
		Iterations: []time.Duration{406605774, 159272442, 372705774}},
	"km-gpu": {Total: 2334524246, MapPhase: 2709312, Checksum: 32105.33296060562,
		Iterations: []time.Duration{375470242, 122810336, 336243668}},
	"spmv-cpu": {Total: 4300746211, MapPhase: 370443413, Checksum: 193219.0654707551,
		Iterations: []time.Duration{1482489545, 553704693, 764551973}},
	"spmv-gpu": {Total: 3253378788, MapPhase: 13862843, Checksum: 193219.0654707551,
		Iterations: []time.Duration{1148283262, 197124123, 407971403}},
}

func goldenWCParams() WordCountParams {
	return WordCountParams{Bytes: 512 << 20, Parallelism: 8, Seed: 10}
}

func goldenKMParams() KMeansParams {
	return KMeansParams{Points: 2_000_000, K: 4, D: 8, Iterations: 3, Parallelism: 8,
		UseCache: true, FromHDFS: true, WriteResult: true, Seed: 1}
}

func goldenSpMVParams() SpMVParams {
	return SpMVParams{MatrixBytes: 256 << 20, NNZPerRow: 8, Iterations: 3, Parallelism: 8,
		UseCache: true, FromHDFS: true, WriteResult: true, Seed: 5}
}

// planObservation is one full equivalence sweep: both placements
// replayed under the exact golden configurations, plus every workload
// run standalone in each mode on a fresh cluster.
type planObservation struct {
	Golden map[string]Result
	Solo   map[string]Result
}

func planEquivalenceRun() planObservation {
	obs := planObservation{Golden: map[string]Result{}, Solo: map[string]Result{}}

	// Replays of the golden sequences: both placements back to back on
	// one cluster, exactly how the eager baselines were recorded.
	{
		g := testSpec(4000).Build()
		g.Run(func() {
			obs.Golden["wc-cpu"] = WordCountCPU(g, goldenWCParams())
			obs.Golden["wc-gpu"] = WordCountGPU(g, goldenWCParams())
		})
	}
	{
		g := testSpec(2000).Build()
		g.Run(func() {
			obs.Golden["km-cpu"] = KMeansCPU(g, goldenKMParams())
			obs.Golden["km-gpu"] = KMeansGPU(g, goldenKMParams())
		})
	}
	{
		g := testSpec(1000).Build()
		g.Run(func() {
			obs.Golden["spmv-cpu"] = SpMVCPU(g, goldenSpMVParams())
			obs.Golden["spmv-gpu"] = SpMVGPU(g, goldenSpMVParams())
		})
	}

	// Standalone runs, one fresh cluster each, in both modes.
	for _, m := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
		opts := plan.Options{Mode: m}
		{
			g := testSpec(4000).Build()
			g.Run(func() { obs.Solo["wc-"+m.String()] = WordCount(g, goldenWCParams(), opts) })
		}
		{
			g := testSpec(2000).Build()
			g.Run(func() { obs.Solo["km-"+m.String()] = KMeans(g, goldenKMParams(), opts) })
		}
		{
			g := testSpec(1000).Build()
			g.Run(func() { obs.Solo["spmv-"+m.String()] = SpMV(g, goldenSpMVParams(), opts) })
		}
	}
	return obs
}

// TestPlannedMatchesEagerGolden is the refactor's equivalence gate:
// forced-CPU and forced-GPU planned pipelines must reproduce the
// pre-refactor eager results exactly.
func TestPlannedMatchesEagerGolden(t *testing.T) {
	obs := planEquivalenceRun()
	for _, wl := range []string{"wc", "km", "spmv"} {
		for _, name := range []string{wl + "-cpu", wl + "-gpu"} {
			if got, want := obs.Golden[name], eagerGolden[name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s diverged from the eager golden:\ngot:  %+v\nwant: %+v", name, got, want)
			}
		}
	}
}

// TestPlannedDeterministicAcrossGOMAXPROCS extends the determinism
// regression net over the plan layer: the full equivalence sweep —
// every workload, every placement mode — must observe identical
// results under serial and parallel schedulers and on a repeated run.
// Run under -race in CI.
func TestPlannedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	serial := planEquivalenceRun()
	runtime.GOMAXPROCS(4)
	parallel := planEquivalenceRun()

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("planned runs differ across GOMAXPROCS:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	again := planEquivalenceRun()
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("repeated planned run differs:\nfirst:  %+v\nsecond: %+v", parallel, again)
	}
}
