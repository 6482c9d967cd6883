package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

// TestFailedWorkEmitsSpans pins the fail-path contract: a GWork that
// dies in setup (an input or output whose nominal volume can never be
// allocated) still queued and still occupied a stream, so it must
// leave a queue span and an error-annotated gwork span instead of a
// hole in the trace. It must also give back every device buffer it
// allocated before the failure — including a cache-flagged input that
// missed and was waiting to be inserted — and leave no cache entry.
func TestFailedWorkEmitsSpans(t *testing.T) {
	const job = 1
	missed := func(buf *membuf.HBuffer) Input {
		return Input{Buf: buf, Nominal: 1 << 20, Cache: true, Key: CacheKey{JobID: job, Block: 0}}
	}
	for _, tc := range []struct {
		name string
		// work returns the inputs and the output nominal of the failing
		// work, given two host buffers to read from.
		work func(a, b *membuf.HBuffer) ([]Input, int64)
	}{
		{"monolithic", func(a, _ *membuf.HBuffer) ([]Input, int64) {
			return []Input{{Buf: a, Nominal: 1 << 50}}, 64
		}},
		{"output-after-cache-miss", func(a, _ *membuf.HBuffer) ([]Input, int64) {
			return []Input{missed(a)}, 1 << 50
		}},
		{"second-input-after-cache-miss", func(a, b *membuf.HBuffer) ([]Input, int64) {
			return []Input{missed(a), {Buf: b, Nominal: 1 << 50}}, 64
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(Config{
				Config:        flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
				GPUsPerWorker: 1,
			})
			dev := g.Manager(0).Devices[0]
			mem := g.Manager(0).Streams.Memory(0)
			var before, after int64
			g.Run(func() {
				pool := g.Cluster.TaskManagers[0].Pool
				a := pool.MustAllocate(64)
				b := pool.MustAllocate(64)
				out := pool.MustAllocate(64)
				in, outNominal := tc.work(a, b)
				w := &GWork{
					ExecuteName: "core_test.double",
					Size:        16,
					Nominal:     16,
					BlockSize:   256,
					GridSize:    1,
					In:          in,
					Out:         out,
					OutNominal:  outNominal,
					JobID:       job,
				}
				before = dev.UsedBytes()
				g.Manager(0).Streams.Submit(w)
				if err := w.Wait(); err == nil {
					t.Fatal("oversized buffer must fail allocation")
				}
				after = dev.UsedBytes()
			})
			if after != before {
				t.Errorf("device UsedBytes = %d after the failed work, want %d (leaked %d)", after, before, after-before)
			}
			if n, used := regionEntries(mem, job), regionUsed(mem, job); n != 0 || used != 0 {
				t.Errorf("failed work left %d cache entries (%d bytes) for job %d, want none", n, used, job)
			}
			spans := g.Obs.Tracer().Spans()
			if len(spans) != 2 {
				t.Fatalf("got %d spans, want 2 (queue + failed gwork)", len(spans))
			}
			var queue, gwork bool
			for _, s := range spans {
				switch s.Cat {
				case "queue":
					queue = true
				case "gwork":
					gwork = true
					var errAttr bool
					for _, a := range s.Attrs {
						if a.Key == "error" {
							errAttr = true
						}
					}
					if !errAttr {
						t.Errorf("failed gwork span %q carries no error attribute", s.Name)
					}
					if s.End < s.Start {
						t.Errorf("failed gwork span ends before it starts")
					}
				}
			}
			if !queue || !gwork {
				t.Errorf("span categories missing: queue=%v gwork=%v", queue, gwork)
			}
		})
	}
}

func init() {
	gpu.Register("core_test.fail", func(ctx *gpu.KernelCtx) error {
		return errors.New("bad block")
	})
}

// TestKernelErrorFailsWork runs a pooled GWork whose kernel fails after
// its inputs (one cache-flagged, one not) have moved: Wait returns the
// kernel's error, every device byte outside the cache returns to its
// start value, the gwork span carries the error, and the shell goes
// back to the pool for the next work.
func TestKernelErrorFailsWork(t *testing.T) {
	const job = 1
	g := New(Config{
		Config:        flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
		GPUsPerWorker: 1,
	})
	dev := g.Manager(0).Devices[0]
	mem := g.Manager(0).Streams.Memory(0)
	wp := g.Manager(0).Streams.Pool()
	var before, after int64
	var werr error
	var reused bool
	g.Run(func() {
		pool := g.Cluster.TaskManagers[0].Pool
		a := pool.MustAllocate(64)
		b := pool.MustAllocate(64)
		out := pool.MustAllocate(64)
		defer a.Free()
		defer b.Free()
		defer out.Free()
		before = dev.UsedBytes()
		w := wp.Get()
		w.ExecuteName = "core_test.fail"
		w.Size, w.Nominal = 16, 16
		w.BlockSize, w.GridSize = 256, 1
		w.In = append(w.In,
			Input{Buf: a, Nominal: 64, Cache: true, Key: CacheKey{JobID: job, Block: 0}},
			Input{Buf: b, Nominal: 64})
		w.Out, w.OutNominal, w.JobID = out, 64, job
		g.Manager(0).Streams.Submit(w)
		werr = w.Wait()
		after = dev.UsedBytes() - regionUsed(mem, job)
		free := len(wp.free)
		wp.Put(w)
		reused = len(wp.free) == free+1
	})
	if werr == nil || !strings.Contains(werr.Error(), "bad block") {
		t.Fatalf("Wait = %v, want the kernel's error", werr)
	}
	if after != before {
		t.Errorf("device bytes outside the cache = %d after the failed kernel, want %d", after, before)
	}
	if !reused {
		t.Error("the failed work's shell did not go back to the pool")
	}
	var errAttr string
	for _, s := range g.Obs.Tracer().Spans() {
		if s.Cat != "gwork" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "error" {
				errAttr = fmt.Sprint(a.Val)
			}
		}
	}
	if !strings.Contains(errAttr, "bad block") {
		t.Errorf("failed kernel's gwork span has error attribute %q, want the kernel's error", errAttr)
	}
}

// TestAllocReclaimRetry covers the cache-reclaim retry of a stream
// worker's cudaMalloc, with the host tier off and on (where Reclaim
// demotes its victims through the worker's Task.Call). Two works fill
// the cache with unpinned 1.2 GiB entries, leaving 0.6 GiB of the
// C2050's 3 GiB free. A work whose output needs 1.5 GiB then fails its
// first output allocation; Reclaim evicts one entry and the retry
// succeeds with the right bytes. A work whose output needs 4 GiB fails
// its retry too: Wait returns the error, both of its spans are closed,
// every device byte outside the cache comes back and its shell goes
// back to the pool.
func TestAllocReclaimRetry(t *testing.T) {
	const (
		job   = 1
		n     = 16
		entry = 1200 << 20
	)
	for _, tier := range []int64{0, 8 << 30} {
		for _, tc := range []struct {
			name       string
			outNominal int64
			evictions  int64
			fail       bool
		}{
			{"retry-succeeds", 1500 << 20, 1, false},
			{"retry-fails", 4 << 30, 2, true},
		} {
			t.Run(fmt.Sprintf("%s/tier=%v", tc.name, tier > 0), func(t *testing.T) {
				g := New(Config{
					Config:           flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
					GPUsPerWorker:    1,
					StreamsPerGPU:    1,
					CacheBytesPerJob: 2500 << 20,
					HostTierBytes:    tier,
				})
				dev := g.Manager(0).Devices[0]
				mem := g.Manager(0).Streams.Memory(0)
				wp := g.Manager(0).Streams.Pool()
				metrics := g.Obs.Metrics()
				var before, after, evicted, demoted int64
				var werr error
				var outBytes []byte
				var reused bool
				var free int64
				g.Run(func() {
					pool := g.Cluster.TaskManagers[0].Pool
					in := pool.MustAllocate(4 * n)
					out := pool.MustAllocate(4 * n)
					defer in.Free()
					defer out.Free()
					for b := 0; b < 2; b++ {
						w := &GWork{
							ExecuteName: "core_test.double",
							Size:        n, Nominal: n,
							BlockSize: 256, GridSize: 1,
							In:  []Input{{Buf: in, Nominal: entry, Cache: true, Key: CacheKey{JobID: job, Block: b}}},
							Out: out, OutNominal: 4 * n, JobID: job,
						}
						g.Manager(0).Streams.Submit(w)
						if err := w.Wait(); err != nil {
							werr = err
							return
						}
					}
					free = dev.FreeBytes()
					for i := 0; i < n; i++ {
						binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
					}
					evicted = metrics.Get("cache.evictions.gpu0")
					demoted = metrics.Get("mem.demotions.gpu0")
					before = dev.UsedBytes() - regionUsed(mem, job)
					w := wp.Get()
					w.ExecuteName = "core_test.double"
					w.Size, w.Nominal = n, n
					w.BlockSize, w.GridSize = 256, 1
					w.In = append(w.In, Input{Buf: in, Nominal: 4 * n})
					w.Out, w.OutNominal, w.JobID = out, tc.outNominal, job
					g.Manager(0).Streams.Submit(w)
					werr = w.Wait()
					after = dev.UsedBytes() - regionUsed(mem, job)
					outBytes = append(outBytes, out.Bytes()...)
					free := len(wp.free)
					wp.Put(w)
					reused = len(wp.free) == free+1
				})
				if free >= tc.outNominal {
					t.Fatalf("device has %d bytes free before the work (fill error %v), want fewer than its output's %d", free, werr, tc.outNominal)
				}
				evicted = metrics.Get("cache.evictions.gpu0") - evicted
				demoted = metrics.Get("mem.demotions.gpu0") - demoted
				if evicted != tc.evictions {
					t.Errorf("Reclaim evicted %d cache entries, want %d", evicted, tc.evictions)
				}
				if want := evicted; tier == 0 {
					if demoted != 0 {
						t.Errorf("%d demotions without a host tier", demoted)
					}
				} else if demoted != want {
					t.Errorf("%d demotions, want one per eviction (%d)", demoted, want)
				}
				if after != before {
					t.Errorf("device bytes outside the cache = %d after the work, want %d", after, before)
				}
				if !reused {
					t.Error("the work's shell did not go back to the pool")
				}
				if !tc.fail {
					if werr != nil {
						t.Fatalf("Wait = %v, want the retry to succeed", werr)
					}
					for i := 0; i < n; i++ {
						if got := math.Float32frombits(binary.LittleEndian.Uint32(outBytes[i*4:])); got != float32(2*i) {
							t.Fatalf("out[%d] = %v, want %v", i, got, float32(2*i))
						}
					}
					return
				}
				if werr == nil || !strings.Contains(werr.Error(), "allocating output") {
					t.Fatalf("Wait = %v, want the output allocation's error", werr)
				}
				// The failed work records its spans last: the queue wait,
				// then the error-annotated gwork span.
				spans := g.Obs.Tracer().Spans()
				queue := spans[len(spans)-2].Cat == "queue" && spans[len(spans)-2].End >= spans[len(spans)-2].Start
				last := spans[len(spans)-1]
				gwork := false
				for _, a := range last.Attrs {
					gwork = gwork || last.Cat == "gwork" && a.Key == "error" && last.End >= last.Start
				}
				if !queue || !gwork {
					t.Errorf("failed work's spans: queue=%v error-annotated gwork=%v, want both", queue, gwork)
				}
			})
		}
	}
}

// TestWaitTaskMatchesWait: a task waiting on a GWork through WaitTask
// resumes at the virtual time, and with the error, that a process's
// Wait returns, for a kernel that succeeds and for one that fails.
func TestWaitTaskMatchesWait(t *testing.T) {
	wait := func(kernel string, task bool) (time.Duration, error) {
		g := newGFlink(1, 1)
		clock := g.Cluster.Clock
		var at time.Duration
		var err error
		g.Run(func() {
			pool := g.Cluster.TaskManagers[0].Pool
			in := pool.MustAllocate(64)
			out := pool.MustAllocate(64)
			defer in.Free()
			defer out.Free()
			w := &GWork{
				ExecuteName: kernel,
				Size:        16,
				Nominal:     16,
				BlockSize:   256,
				GridSize:    1,
				In:          []Input{{Buf: in, Nominal: 64}},
				Out:         out,
				OutNominal:  64,
			}
			g.Manager(0).Streams.Submit(w)
			if !task {
				err = w.Wait()
				at = clock.Now()
				return
			}
			done := vclock.NewEvent(clock)
			var waiter *vclock.Task
			waiter = clock.Spawn("waiter", func() {
				ok, e := w.WaitTask(waiter)
				if !ok {
					return
				}
				at, err = clock.Now(), e
				done.Set()
				waiter.Exit()
			})
			done.Wait()
		})
		return at, err
	}
	for _, kernel := range []string{"core_test.double", "core_test.fail"} {
		wantAt, wantErr := wait(kernel, false)
		at, err := wait(kernel, true)
		if at != wantAt || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: WaitTask returned at %v with %v; Wait at %v with %v", kernel, at, err, wantAt, wantErr)
		}
		if (wantErr != nil) != (kernel == "core_test.fail") || wantAt <= 0 {
			t.Errorf("%s: Wait returned at %v with %v", kernel, wantAt, wantErr)
		}
	}
}
