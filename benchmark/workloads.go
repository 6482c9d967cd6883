package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/plan"
	"gflink/internal/stream"
	"gflink/internal/vclock"
	"gflink/internal/workloads"
)

// outcome is what one run of a workload produced, as the checks see it.
// Everything in it is simulated or computed, never host time, so two
// runs of the same workload and seed must produce equal outcomes.
type outcome struct {
	// makespan is the simulated time from submission to result.
	makespan time.Duration
	// checksum fingerprints the output.
	checksum float64
	// iterations are the per-iteration simulated times (kmeans only).
	iterations []time.Duration
	// stream is the pipeline result (stream-window only).
	stream stream.Result
	// checks and failures count output checks the run made itself
	// (gwork-small verifies every GWork as it completes).
	checks, failures int
}

// instance is one prepared run on a fresh deployment: drive runs it
// inside the simulation; release frees what
// prepare allocated and must be called once, after the simulation ends.
type instance struct {
	drive   func() outcome
	release func()
}

// workload is one benchmark scenario. Sizes and the scale divisor are
// pinned: the divisor decides how many real blocks stand for the nominal
// data, which moves cache hits and tier traffic, so it is part of the
// workload's definition and not a free knob.
type workload struct {
	name string
	spec workloads.Spec
	// prepare builds the run's inputs from the seed on a fresh deployment.
	prepare func(g *core.GFlink, seed uint64, corrupt bool) instance
	// reference computes what a correct run must produce, untimed.
	reference func(seed uint64) outcome
	// check compares a run against the reference and returns the number
	// of checks made and failed.
	check func(got, ref outcome) (checks, failures int)
}

// allWorkloads are the benchmark's workloads, in the fixed order an
// all-workload invocation runs them. Each targets different layers; see
// README.md for what each should and should not move.
var allWorkloads = []*workload{
	// Fig 5a's largest point: the cache holds the points, so host time is
	// the assign kernel body and the GDST fill.
	kmeansWorkload("kmeans-cluster",
		workloads.Spec{Workers: 10, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 2000},
		workloads.KMeansParams{Points: 270_000_000, Iterations: 10, UseCache: true, FromHDFS: true, WriteResult: true}),
	// Fig 7c's one-worker point with the host tier armed: the working set
	// exceeds device memory, so simulated time is dominated by demotions,
	// spills and reloads.
	kmeansWorkload("kmeans-ooc",
		workloads.Spec{Workers: 1, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 1250, HostTierBytes: 2 << 30},
		workloads.KMeansParams{Points: 210_000_000, Iterations: 10, UseCache: true}),
	// Many tiny GWorks from concurrent drivers, each reading one cached
	// block: host time is the submit/dispatch/complete path.
	gworkWorkload("gwork-small", 12, 10_000),
	// A rate-mismatched stream with the window on a CPU slot, so the
	// credit protocol binds.
	streamWorkload("stream-window", 50_000_000),
}

func findWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputSeed maps the benchmark's seed to the generators' seed. The
// generators treat 0 as "use the default", so the result is never 0.
func inputSeed(seed uint64) uint64 { return splitmix64(seed, 0x5eed) | 1 }

// splitmix64 is the generator every workload input is drawn from; the
// stream source uses the same function, which the stream reference
// replays.
func splitmix64(seed, x uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(x+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// kmeansWorkload builds a KMeans scenario: the timed run places the assign
// stage on the GPU, the reference runs the same job on the CPU path of a
// fresh deployment, and the centroid checksums must agree within 2%, the
// tolerance the workloads package's own CPU/GPU equivalence tests use.
func kmeansWorkload(name string, spec workloads.Spec, params workloads.KMeansParams) *workload {
	run := func(g *core.GFlink, seed uint64, mode plan.Mode) outcome {
		p := params
		p.Seed = inputSeed(seed)
		res := workloads.KMeans(g, p, plan.Options{Mode: mode})
		return outcome{makespan: res.Total, checksum: res.Checksum, iterations: res.Iterations}
	}
	return &workload{
		name: name,
		spec: spec,
		prepare: func(g *core.GFlink, seed uint64, corrupt bool) instance {
			return instance{
				drive: func() outcome {
					out := run(g, seed, plan.ForceGPU)
					if corrupt {
						out.checksum *= 1.5
					}
					return out
				},
				release: func() {},
			}
		},
		reference: func(seed uint64) outcome {
			g := spec.Build()
			g.Obs.Tracer().SetEnabled(false)
			var out outcome
			g.Run(func() { out = run(g, seed, plan.ForceCPU) })
			return out
		},
		check: func(got, ref outcome) (int, int) {
			if math.Abs(got.checksum-ref.checksum) > 0.02*math.Abs(ref.checksum) {
				return 1, 1
			}
			return 1, 0
		},
	}
}

// GWork workload constants: every GWork reads one cached block of
// gworkElems real floats standing for gworkNominal bytes.
const (
	gworkBlocks  = 256       // distinct cached blocks per driver
	gworkElems   = 64        // real float32 elements per block
	gworkNominal = 256 << 10 // nominal bytes per block
	gworkJob     = 1
	doubleKernel = "bench.double"
)

func init() {
	// bench.double writes twice its input: trivial device work whose
	// result is checkable bit for bit.
	gpu.Register(doubleKernel, func(ctx *gpu.KernelCtx) error {
		if len(ctx.In) < 1 || len(ctx.Out) < 1 {
			return fmt.Errorf("%s: want 1 input and 1 output", doubleKernel)
		}
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		for i := 0; i < ctx.N; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(2*v))
		}
		ctx.Charge(costmodel.Work{Flops: 1, BytesRead: 4, BytesWritten: 4}.Scale(float64(ctx.Nominal)))
		return nil
	})
}

// gworkWorkload runs drivers concurrent driver processes on one worker
// with two C2050s, each submitting perDriver GWorks one at a time.
func gworkWorkload(name string, drivers, perDriver int) *workload {
	return &workload{
		name: name,
		spec: workloads.Spec{Workers: 1, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: 1, PageSize: 4 * gworkElems},
		prepare: func(g *core.GFlink, seed uint64, corrupt bool) instance {
			return prepareGWorks(g, seed, drivers, perDriver, corrupt)
		},
		// Every GWork is checked as it completes against the doubled
		// input, so the run-level reference only pins determinism.
		reference: func(uint64) outcome { return outcome{} },
		check: func(got, _ outcome) (int, int) {
			return got.checks, got.failures
		},
	}
}

// prepareGWorks allocates every driver's blocks, fills them from the
// seed, precomputes the doubled outputs, and draws each driver's block
// sequence.
func prepareGWorks(g *core.GFlink, seed uint64, drivers, perDriver int, corrupt bool) instance {
	s := inputSeed(seed)
	pool := g.Cluster.TaskManagers[0].Pool
	blocks := make([][]*membuf.HBuffer, drivers)
	outs := make([]*membuf.HBuffer, drivers)
	want := make([][][]byte, drivers)
	draws := make([][]uint8, drivers)
	for d := range blocks {
		blocks[d] = make([]*membuf.HBuffer, gworkBlocks)
		want[d] = make([][]byte, gworkBlocks)
		for b := range blocks[d] {
			buf := pool.MustAllocate(4 * gworkElems)
			blocks[d][b] = buf
			want[d][b] = fillBlock(buf.Bytes(), s, uint64(d*gworkBlocks+b))
		}
		out := pool.MustAllocate(4 * gworkElems)
		outs[d] = out
		draws[d] = make([]uint8, perDriver)
		for i := range draws[d] {
			draws[d][i] = uint8(splitmix64(s^uint64(d+1)<<32, uint64(i)))
		}
	}
	release := func() {
		for d := range blocks {
			for _, b := range blocks[d] {
				b.Free()
			}
			outs[d].Free()
		}
	}
	drive := func() outcome {
		clock := g.Cluster.Clock
		mgr := g.Manager(0).Streams
		t0 := clock.Now()
		per := make([]outcome, drivers)
		grp := vclock.NewGroup(clock)
		for d := 0; d < drivers; d++ {
			grp.Go(fmt.Sprintf("driver-%d", d), func() {
				per[d] = driveGWorks(mgr, blocks[d], outs[d], want[d], draws[d], d, corrupt && d == 0)
			})
		}
		grp.Wait()
		out := outcome{makespan: clock.Now() - t0}
		for _, o := range per {
			out.checksum += o.checksum
			out.checks += o.checks
			out.failures += o.failures
		}
		g.ReleaseJobCaches(gworkJob)
		return out
	}
	return instance{drive: drive, release: release}
}

// fillBlock writes gworkElems seeded floats into buf and returns the
// bytes the doubling kernel must produce from them.
func fillBlock(buf []byte, seed, block uint64) []byte {
	want := make([]byte, len(buf))
	for i := 0; i < gworkElems; i++ {
		v := float32(splitmix64(seed+block, uint64(i))>>40) / float32(1<<24)
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(2*v))
	}
	return want
}

// driveGWorks is one driver process: submit a GWork on the next drawn
// block, wait for it, check its output, repeat. corrupt flips one output
// byte before the first check, for the tests that prove checks fire.
func driveGWorks(mgr *core.GStreamManager, blocks []*membuf.HBuffer, out *membuf.HBuffer, want [][]byte, draws []uint8, d int, corrupt bool) outcome {
	var o outcome
	for i, b := range draws {
		err := doubleOnGPU(mgr, blocks[b], out, core.CacheKey{JobID: gworkJob, Partition: d, Block: int(b)})
		got := out.Bytes()
		if corrupt && i == 0 {
			got[0] ^= 1
		}
		o.checks++
		if err != nil || !bytes.Equal(got, want[b]) {
			o.failures++
			continue
		}
		o.checksum += float64(math.Float32frombits(binary.LittleEndian.Uint32(got)))
	}
	return o
}

// doubleOnGPU runs one pooled GWork that doubles the cacheable block in
// into out, and waits for it.
func doubleOnGPU(mgr *core.GStreamManager, in, out *membuf.HBuffer, key core.CacheKey) error {
	wp := mgr.Pool()
	w := wp.Get()
	w.ExecuteName = doubleKernel
	w.Size = gworkElems
	w.Nominal = gworkNominal / 4
	w.BlockSize = 256
	w.GridSize = gworkNominal / 4 / 256
	w.In = append(w.In, core.Input{Buf: in, Nominal: gworkNominal, Cache: true, Key: key})
	w.Out = out
	w.OutNominal = gworkNominal
	w.JobID = gworkJob
	mgr.Submit(w)
	err := w.Wait()
	wp.Put(w)
	return err
}

// Stream workload constants: the stream layer's defaults (256-record
// batches, 4 credits per edge, 1024 keys, 1024-record tumbling windows
// over 256 slots), which the reference replays.
const (
	streamKeys    = 1024
	streamWidth   = 1024
	streamSlots   = 256
	streamCredits = 4
)

// streamWorkload streams records through a source on one worker, a
// CPU-placed tumbling window on the other, and a sink back on the first.
func streamWorkload(name string, records int64) *workload {
	return &workload{
		name: name,
		spec: workloads.Spec{Workers: 2, GPUsPerWorker: 1, Profile: costmodel.C2050, ScaleDivisor: 1},
		prepare: func(g *core.GFlink, seed uint64, corrupt bool) instance {
			return instance{
				drive: func() outcome {
					res := workloads.Backpressure(g, workloads.BackpressureParams{
						Records: records, Mode: plan.ForceCPU, Seed: inputSeed(seed),
					})
					if corrupt {
						res.Checksum += 1
					}
					return outcome{makespan: res.Makespan, checksum: res.Checksum, stream: res}
				},
				release: func() {},
			}
		},
		reference: func(seed uint64) outcome {
			return outcome{checksum: streamReference(inputSeed(seed), records)}
		},
		check: func(got, ref outcome) (int, int) {
			r := got.stream
			windows := (records + streamWidth - 1) / streamWidth
			failed := 0
			for _, ok := range []bool{
				got.checksum == ref.checksum,
				r.Records == records,
				r.Windows == windows,
				r.MaxDepth <= streamCredits,
			} {
				if !ok {
					failed++
				}
			}
			return 4, failed
		},
	}
}

// streamReference replays the stream source's generator, aggregates each
// tumbling window with the CPU reference kernel, and folds the slot sums
// in the order the sink receives them.
func streamReference(seed uint64, records int64) float64 {
	packed := make([]byte, 8*streamWidth)
	sums := make([]float32, streamSlots)
	var checksum float64
	for start := uint64(0); start < uint64(records); start += streamWidth {
		n := min(uint64(streamWidth), uint64(records)-start)
		for i := uint64(0); i < n; i++ {
			h := splitmix64(seed, start+i)
			slot := uint32((h % streamKeys) % streamSlots)
			val := float32(h>>40) / float32(1<<24)
			binary.LittleEndian.PutUint32(packed[8*i:], slot)
			binary.LittleEndian.PutUint32(packed[8*i+4:], math.Float32bits(val))
		}
		for i := range sums {
			sums[i] = 0
		}
		kernels.CPUWindowAgg(packed, int(n), streamSlots, sums)
		for slot, v := range sums {
			checksum += float64(v) * float64(slot+1)
		}
	}
	return checksum
}
