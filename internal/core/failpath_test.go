package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
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
			if n, used := mem.Entries(job), mem.Used(job); n != 0 || used != 0 {
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
		after = dev.UsedBytes() - mem.Used(job)
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
