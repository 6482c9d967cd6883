package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// vclock-bench measures the simulator's own raw speed — real wall-clock
// seconds, the one experiment where host time is the measurand rather
// than noise. The scenario is the canonical 100k-GWork hot-path sweep
// (the same deployment hotalloc-bench drives), split into
// vclockBenchPoints independent points so the parallel sweep runner has
// something to fan out:
//
//   - "legacy serial"    — the pre-batching one-timer dispatcher
//     (vclock.SetLegacyDispatch), points run one after another: the
//     baseline engine in its baseline harness.
//   - "batched serial"   — the batched dispatcher, same serial harness:
//     isolates the engine-only win (ring run queue, co-deadline timer
//     batches, fixed-index census, lock-free Now).
//   - "batched parallel" — the batched dispatcher with the points fanned
//     out by RunPoints: the full production configuration.
//
// Simulated results are identical in all three configurations (the
// trace-determinism tests pin that); only the host-time cost differs.
const (
	vclockBenchPoints = 4       // sweep points; also the fan-out width
	vclockBenchWorks  = 100_000 // total GWorks across all points
	vclockBenchReps   = 3       // interleaved repetitions; each config keeps its fastest
	// Pinned wall-clock floors, with margin under the measured ratios so
	// shared-runner noise does not flake the gate.
	vclockBenchEngineFloor = 1.10 // batched vs legacy, serial harness
	vclockBenchTotalFloor  = 1.50 // parallel batched vs legacy serial, NumCPU >= 2 (1.71x-2.70x measured on 2 vCPUs)
)

// vclockSweep drives works GWorks through the full submit/exec/complete
// hot path on a fresh single-GPU deployment and returns nothing: the
// caller times it. legacy selects the pre-batching dispatcher.
func vclockSweep(works int, legacy bool) {
	clock := vclock.New()
	if legacy {
		clock.SetLegacyDispatch(true)
	}
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10, core.WithPolicy(core.EvictFIFO))
	mgr := core.NewStreamManager(core.StreamConfig{
		Clock:    clock,
		Wrapper:  wrapper,
		Memories: []*core.GMemoryManager{mem},
		Metrics:  obs.NewRegistry(),
	})
	pool := membuf.NewPool(clock, model, membuf.Config{})
	const n = 64
	var kerr error
	clock.Run(func() {
		in := pool.MustAllocate(4 * n)
		out := pool.MustAllocate(4 * n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
		}
		wp := mgr.Pool()
		for i := 0; i < works && kerr == nil; i++ {
			w := wp.Get()
			w.ExecuteName = "hotalloc.double"
			w.Size = n
			w.Nominal = n
			w.BlockSize = 256
			w.GridSize = 1
			w.In = append(w.In, core.Input{Buf: in, Nominal: 4 * n})
			w.Out = out
			w.OutNominal = 4 * n
			mgr.Submit(w)
			if err := w.Wait(); err != nil && kerr == nil {
				kerr = err
			}
			wp.Put(w)
		}
		mgr.Close()
		dev.Close()
	})
	if kerr != nil {
		panic(fmt.Sprintf("bench: vclock-bench GWork failed: %v", kerr))
	}
}

func init() {
	register(&Experiment{
		ID:    "vclock-bench",
		Title: "Simulator raw speed: batched vclock dispatch + parallel sweep runner (wall clock)",
		Paper: "not a paper figure — the gate on the simulator's own speed: batched dispatch must beat the legacy engine serially, and the parallel sweep runner must compound that to >=1.5x end to end on a multi-core host",
		Run: func(scale int64) *Table {
			// The scenario is pinned at 100k GWorks regardless of -scale:
			// wall-clock ratios need a fixed workload, and the sweep's
			// real buffers are tiny either way.
			_ = scale
			per := vclockBenchWorks / vclockBenchPoints

			// Host wall-clock is the measurand of this experiment — the one
			// place the wallclock ban is waived. No simulated behavior
			// depends on these readings; they only grade the simulator.
			// Each configuration keeps its fastest of vclockBenchReps
			// interleaved repetitions: on a shared host a slow spell
			// inflates single readings, and interleaving keeps one spell
			// from landing on a single configuration.
			configs := [3]func(){
				func() { // legacy serial
					for i := 0; i < vclockBenchPoints; i++ {
						vclockSweep(per, true)
					}
				},
				func() { // batched serial
					for i := 0; i < vclockBenchPoints; i++ {
						vclockSweep(per, false)
					}
				},
				func() { // batched parallel
					RunPoints(vclockBenchPoints, func(i int, _ func(*core.GFlink)) struct{} {
						vclockSweep(per, false)
						return struct{}{}
					})
				},
			}
			var best [3]time.Duration
			for r := 0; r < vclockBenchReps; r++ {
				for i, run := range configs {
					t0 := time.Now() //gflink:allow-wallclock simulator speed benchmark: host time is the measurand
					run()
					d := time.Since(t0) //gflink:allow-wallclock simulator speed benchmark: host time is the measurand
					if r == 0 || d < best[i] {
						best[i] = d
					}
				}
			}
			legacySerial, batchedSerial, batchedParallel := best[0], best[1], best[2]

			nsPer := func(d time.Duration) string {
				return fmt.Sprintf("%d ns/gwork", d.Nanoseconds()/vclockBenchWorks)
			}
			t := &Table{
				ID:     "vclock-bench",
				Title:  "Simulator wall-clock speed on the 100k-GWork hot-path sweep",
				Paper:  "batched dispatch beats the legacy engine; the parallel runner compounds it",
				Header: []string{"config", "gworks", "wall", "per gwork"},
			}
			t.AddRow("legacy serial", fmt.Sprint(vclockBenchWorks), legacySerial.Round(time.Millisecond).String(), nsPer(legacySerial))
			t.AddRow("batched serial", fmt.Sprint(vclockBenchWorks), batchedSerial.Round(time.Millisecond).String(), nsPer(batchedSerial))
			t.AddRow("batched parallel", fmt.Sprint(vclockBenchWorks), batchedParallel.Round(time.Millisecond).String(), nsPer(batchedParallel))
			t.Note("engine speedup (batched/legacy, serial) = %.2fx", float64(legacySerial)/float64(batchedSerial))
			t.Note("total speedup (parallel batched vs legacy serial) = %.2fx (ncpu=%d points=%d)",
				float64(legacySerial)/float64(batchedParallel), runtime.NumCPU(), vclockBenchPoints)
			return t
		},
		Check: func(t *Table) error {
			var engine, total float64
			var ncpu, points int
			foundE, foundT := false, false
			for _, n := range t.Notes {
				if _, err := fmt.Sscanf(n, "engine speedup (batched/legacy, serial) = %fx", &engine); err == nil {
					foundE = true
					continue
				}
				if _, err := fmt.Sscanf(n, "total speedup (parallel batched vs legacy serial) = %fx (ncpu=%d points=%d)", &total, &ncpu, &points); err == nil {
					foundT = true
				}
			}
			if !foundE || !foundT {
				return fmt.Errorf("vclock-bench: missing speedup notes (engine %v, total %v)", foundE, foundT)
			}
			if engine < vclockBenchEngineFloor {
				return fmt.Errorf("vclock-bench: batched dispatch is only %.2fx the legacy engine serially, floor is %.2fx", engine, vclockBenchEngineFloor)
			}
			// The end-to-end gate needs real parallelism: a
			// single-core host can only show the engine-side win, so it is
			// held to the engine floor instead.
			floor := vclockBenchTotalFloor
			if ncpu < 2 {
				floor = vclockBenchEngineFloor
			}
			if total < floor {
				return fmt.Errorf("vclock-bench: parallel batched is only %.2fx legacy serial (ncpu=%d), floor is %.2fx", total, ncpu, floor)
			}
			return nil
		},
	})
}
