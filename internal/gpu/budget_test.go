package gpu

import (
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

// Allocation budgets (DESIGN.md invariant 10): once command shells and
// buffer shells recycle, stream commands, synchronizes, launches and
// device Malloc/Free cost no heap allocation.

// rigAllocs runs f inside the root process of a fresh rig, after
// setup and a warm-up, and returns f's steady-state heap allocations
// per call.
func rigAllocs(t *testing.T, f func(c *vclock.Clock, d *Device, s *Stream, h *membuf.HBuffer, b *Buffer)) float64 {
	t.Helper()
	c, d, p := testRig()
	var allocs float64
	c.Run(func() {
		defer d.Close()
		s := d.NewStream(costmodel.DefaultCPU)
		h := p.MustAllocate(64)
		defer h.Free()
		h.Pin()
		b, err := d.Malloc(64, 64)
		if err != nil {
			t.Error(err)
			return
		}
		defer d.Free(b)
		one := func() { f(c, d, s, h, b) }
		for i := 0; i < 64; i++ {
			one()
		}
		allocs = testing.AllocsPerRun(1000, one)
	})
	return allocs
}

// synchronize waits in the calling process until s drains.
func synchronize(c *vclock.Clock, s *Stream) {
	if t := c.Process(); !s.SynchronizeTask(t) {
		t.Park()
	}
}

// TestStreamCommandsAllocateNothing enqueues each command kind and
// synchronizes the stream, the pair a stream worker makes per command.
func TestStreamCommandsAllocateNothing(t *testing.T) {
	ranges := []CopyRange{{Off: 0, Len: 16}, {Off: 32, Len: 16}}
	ctx := &KernelCtx{N: 16, Nominal: 16}
	var fut *Future
	var kerr error
	mark := func() {}
	for _, tc := range []struct {
		name    string
		enqueue func(c *vclock.Clock, s *Stream, h *membuf.HBuffer, b *Buffer)
	}{
		{"h2d", func(_ *vclock.Clock, s *Stream, h *membuf.HBuffer, b *Buffer) { s.H2DAsync(b, h, 64) }},
		// The projected GWork's copy: only the referenced ranges move.
		{"h2d-ranges", func(_ *vclock.Clock, s *Stream, h *membuf.HBuffer, b *Buffer) { s.H2DRangesAsync(b, h, ranges, 32) }},
		{"d2h", func(_ *vclock.Clock, s *Stream, h *membuf.HBuffer, b *Buffer) { s.D2HAsync(h, b, 64) }},
		{"launch", func(c *vclock.Clock, s *Stream, _ *membuf.HBuffer, b *Buffer) {
			if fut == nil {
				fut = NewFuture(c)
				ctx.In, ctx.Out = []*Buffer{b}, []*Buffer{b}
			} else if _, err := fut.Result(); err != nil {
				kerr = err
			}
			s.LaunchAsyncInto(fut, "test.double", ctx)
		}},
		{"callback", func(_ *vclock.Clock, s *Stream, _ *membuf.HBuffer, _ *Buffer) { s.Callback(mark) }},
		{"synchronize", func(*vclock.Clock, *Stream, *membuf.HBuffer, *Buffer) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := rigAllocs(t, func(c *vclock.Clock, _ *Device, s *Stream, h *membuf.HBuffer, b *Buffer) {
				tc.enqueue(c, s, h, b)
				synchronize(c, s)
			})
			if kerr != nil {
				t.Fatal(kerr)
			}
			if allocs != 0 {
				t.Fatalf("%.2f heap allocations per %s and synchronize, want 0", allocs, tc.name)
			}
		})
	}
}

// TestMallocFreeAllocatesNothing pins a warm Device.Malloc/Free cycle:
// the shell and its backing come off the device's free list.
func TestMallocFreeAllocatesNothing(t *testing.T) {
	var err error
	allocs := rigAllocs(t, func(_ *vclock.Clock, d *Device, _ *Stream, _ *membuf.HBuffer, _ *Buffer) {
		b, merr := d.Malloc(128, 128)
		if merr != nil {
			err = merr
			return
		}
		d.Free(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per Malloc/Free, want 0", allocs)
	}
}

// TestLaunchAllocatesNothing pins the synchronous Device.Launch: the
// kernel lookup, the compute engine and the charge.
func TestLaunchAllocatesNothing(t *testing.T) {
	var err error
	ctx := &KernelCtx{N: 16, Nominal: 16}
	allocs := rigAllocs(t, func(_ *vclock.Clock, d *Device, _ *Stream, _ *membuf.HBuffer, b *Buffer) {
		ctx.In, ctx.Out = ctx.In[:0], ctx.Out[:0]
		ctx.In, ctx.Out = append(ctx.In, b), append(ctx.Out, b)
		if _, lerr := d.Launch("test.double", ctx); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.2f heap allocations per Launch, want 0", allocs)
	}
}
