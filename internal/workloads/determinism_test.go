package workloads

import (
	"reflect"
	"runtime"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
)

// detObservation is everything one determinism run exposes: full
// workload results (virtual-clock totals included) plus the record
// ordering of a keyed reduction, the two things map iteration order or
// goroutine scheduling could plausibly perturb.
type detObservation struct {
	CPU, GPU Result
	Counts   []keyCount
}

// keyCount is one record of the keyed count determinismRun reduces.
type keyCount struct{ Key, N int64 }

// determinismRun builds a fresh cluster and runs WordCount on both
// paths plus a ReduceByKey count with colliding keys, whose collected
// order is each partition's keys in sortKeys order.
func determinismRun() detObservation {
	g := testSpec(1000).Build()
	var out detObservation
	g.Run(func() {
		p := WordCountParams{Bytes: 1 << 24, Parallelism: 6, Seed: 7}
		out.CPU = WordCountCPU(g, p)
		out.GPU = WordCountGPU(g, p)
		j := g.Cluster.NewJob("det-groups")
		ds := flink.Generate(j, "nums", 40_000, 8, 8, func(part int, ord int64) int64 {
			return (int64(part)*31 + ord/1000) % 7
		})
		pairs := flink.Map(ds, "pair", costmodel.Work{}, 16, func(v int64) keyCount { return keyCount{Key: v, N: 1} })
		counts := flink.ReduceByKey(pairs, "mod7", costmodel.Work{Flops: 1},
			func(c keyCount) int64 { return c.Key },
			func(a, b keyCount) keyCount { return keyCount{Key: a.Key, N: a.N + b.N} })
		out.Counts = flink.Collect(counts)
	})
	return out
}

// TestDeterministicAcrossGOMAXPROCS runs the same workloads under
// serial and parallel schedulers and demands byte-identical
// observations: same checksums, same result ordering, and the same
// simulated-clock totals down to the nanosecond. The virtual clock
// already serializes process execution; this test is the regression
// net for the residual nondeterminism sources (map iteration feeding
// ordered output, float accumulation order) that wallclock's map-range
// ban rules out statically. Run under -race in CI.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	serial := determinismRun()
	runtime.GOMAXPROCS(4)
	parallel := determinismRun()

	if serial.CPU.Total != parallel.CPU.Total || serial.GPU.Total != parallel.GPU.Total {
		t.Errorf("simulated-clock totals differ across GOMAXPROCS: cpu %v vs %v, gpu %v vs %v",
			serial.CPU.Total, parallel.CPU.Total, serial.GPU.Total, parallel.GPU.Total)
	}
	if serial.CPU.Checksum != parallel.CPU.Checksum || serial.GPU.Checksum != parallel.GPU.Checksum {
		t.Errorf("checksums differ across GOMAXPROCS: cpu %v vs %v, gpu %v vs %v",
			serial.CPU.Checksum, parallel.CPU.Checksum, serial.GPU.Checksum, parallel.GPU.Checksum)
	}
	if !reflect.DeepEqual(serial.CPU, parallel.CPU) || !reflect.DeepEqual(serial.GPU, parallel.GPU) {
		t.Errorf("workload results differ across GOMAXPROCS:\nserial:   %+v %+v\nparallel: %+v %+v",
			serial.CPU, serial.GPU, parallel.CPU, parallel.GPU)
	}
	if !reflect.DeepEqual(serial.Counts, parallel.Counts) {
		t.Errorf("ReduceByKey ordering differs across GOMAXPROCS:\nserial:   %v\nparallel: %v",
			serial.Counts, parallel.Counts)
	}
	if len(serial.Counts) != 7 {
		t.Errorf("ReduceByKey kept %d keys, want one per residue mod 7: %v", len(serial.Counts), serial.Counts)
	}
	// A second run on the same GOMAXPROCS must also be identical — the
	// cheap way to catch nondeterminism that GOMAXPROCS alone does not
	// tickle (map seed randomization changes per process, but two runs
	// in one process still reshuffle iteration order).
	again := determinismRun()
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("repeated run differs:\nfirst:  %+v\nsecond: %+v", parallel, again)
	}
}
