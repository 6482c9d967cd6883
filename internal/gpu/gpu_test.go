package gpu

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

func testRig() (*vclock.Clock, *Device, *membuf.Pool) {
	c := vclock.New()
	d := NewDevice(c, 0, 0, costmodel.C2050, costmodel.DefaultPCIe)
	p := membuf.NewPool(c, costmodel.Default(), membuf.Config{PageSize: 4096})
	return c, d, p
}

func init() {
	Register("test.double", func(ctx *KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		for i := 0; i < ctx.N; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v*2))
		}
		ctx.Charge(costmodel.Work{Flops: float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal), BytesWritten: 4 * float64(ctx.Nominal)})
		return nil
	})
}

func TestMallocFreeAccounting(t *testing.T) {
	c, d, _ := testRig()
	c.Run(func() {
		b, err := d.Malloc(1<<20, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if d.UsedBytes() != 1<<20 || len(b.Bytes()) != 1024 {
			t.Errorf("used=%d real=%d", d.UsedBytes(), len(b.Bytes()))
		}
		d.Free(b)
		if d.UsedBytes() != 0 {
			t.Errorf("used after free = %d", d.UsedBytes())
		}
	})
}

func TestMallocOOM(t *testing.T) {
	c, d, _ := testRig()
	c.Run(func() {
		if _, err := d.Malloc(d.Profile.MemBytes+1, 0); err == nil {
			t.Error("over-capacity malloc succeeded")
		}
		b, err := d.Malloc(d.Profile.MemBytes, 0)
		if err != nil {
			t.Fatalf("exact-capacity malloc failed: %v", err)
		}
		if _, err := d.Malloc(1, 0); err == nil {
			t.Error("malloc on full device succeeded")
		}
		d.Free(b)
	})
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "double free") {
			t.Errorf("want double-free panic, got %v", r)
		}
	}()
	c, d, _ := testRig()
	c.Run(func() {
		b, _ := d.Malloc(100, 0)
		d.Free(b)
		d.Free(b)
	})
}

// TestDetachReattach: Detach releases a buffer's nominal bytes and
// keeps its real bytes; Reattach accounts them again under a fresh id,
// or fails while they do not fit; a buffer is reattached only once per
// Detach; and Free of a detached buffer releases nothing twice.
func TestDetachReattach(t *testing.T) {
	c, d, _ := testRig()
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	c.Run(func() {
		b, _ := d.Malloc(1<<20, 4)
		copy(b.Bytes(), "keep")
		id := b.id
		d.Detach(b)
		if d.UsedBytes() != 0 {
			t.Errorf("used after Detach = %d", d.UsedBytes())
		}
		full, _ := d.Malloc(d.Profile.MemBytes, 0)
		if err := d.Reattach(b); err == nil {
			t.Error("Reattach on a full device succeeded")
		}
		d.Free(full)
		if err := d.Reattach(b); err != nil {
			t.Fatal(err)
		}
		if d.UsedBytes() != 1<<20 || string(b.Bytes()) != "keep" || b.id == id {
			t.Errorf("after Reattach: used=%d bytes=%q id=%d (was %d)", d.UsedBytes(), b.Bytes(), b.id, id)
		}
		if !panics(func() { d.Reattach(b) }) {
			t.Error("second Reattach of one detached buffer did not panic")
		}
		d.Detach(b)
		d.Free(b)
		if d.UsedBytes() != 0 {
			t.Errorf("used after Free of a detached buffer = %d", d.UsedBytes())
		}
		if !panics(func() { d.Detach(b) }) {
			t.Error("Detach of a freed buffer did not panic")
		}
	})
}

func TestSyncCopyMovesBytesAndChargesTime(t *testing.T) {
	c, d, p := testRig()
	cpu := costmodel.DefaultCPU
	var elapsed time.Duration
	c.Run(func() {
		h := p.MustAllocate(8)
		defer h.Free()
		copy(h.Bytes(), []byte("gpudata!"))
		h.Pin()
		buf, _ := d.Malloc(1<<20, 8)
		s := d.NewStream(cpu)
		defer d.Close()
		start := c.Now()
		s.H2DAsync(buf, h, 1<<20)
		if t := c.Process(); !s.SynchronizeTask(t) {
			t.Park()
		}
		elapsed = c.Now() - start
		if string(buf.Bytes()) != "gpudata!" {
			t.Errorf("device bytes = %q", buf.Bytes())
		}
		out := p.MustAllocate(8)
		defer out.Free()
		out.Pin()
		s.D2HAsync(out, buf, 1<<20)
		if t := c.Process(); !s.SynchronizeTask(t) {
			t.Park()
		}
		if string(out.Bytes()) != "gpudata!" {
			t.Errorf("host bytes = %q", out.Bytes())
		}
	})
	if want := costmodel.DefaultPCIe.TransferTime(1 << 20); elapsed != want {
		t.Errorf("H2D took %v, want %v", elapsed, want)
	}
}

func TestLaunchComputesAndCharges(t *testing.T) {
	c, d, _ := testRig()
	c.Run(func() {
		in, _ := d.Malloc(1024, 16)
		out, _ := d.Malloc(1024, 16)
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i+1)))
		}
		ctx := &KernelCtx{In: []*Buffer{in}, Out: []*Buffer{out}, N: 4, Nominal: 1 << 20}
		start := c.Now()
		dur, err := d.Launch("test.double", ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Now() - start; got != dur {
			t.Errorf("wall %v != reported %v", got, dur)
		}
		want := d.Profile.KernelTime(costmodel.Work{Flops: 1 << 20, BytesRead: 4 << 20, BytesWritten: 4 << 20}, 1)
		if dur != want {
			t.Errorf("kernel time %v, want %v", dur, want)
		}
		for i := 0; i < 4; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[i*4:]))
			if got != float32(i+1)*2 {
				t.Errorf("out[%d] = %v", i, got)
			}
		}
	})
	if d.Stats().Kernels != 1 {
		t.Errorf("kernel count = %d", d.Stats().Kernels)
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	c, d, _ := testRig()
	c.Run(func() {
		if _, err := d.Launch("nope", &KernelCtx{}); err == nil {
			t.Error("unknown kernel launched")
		}
	})
}

func TestKernelsSerializeOnComputeEngine(t *testing.T) {
	c, d, _ := testRig()
	end := c.Run(func() {
		g := vclock.NewGroup(c)
		for i := 0; i < 3; i++ {
			g.Go("launcher", func() {
				ctx := &KernelCtx{N: 0, Nominal: 1}
				ctx.Charge(costmodel.Work{Flops: d.Profile.SPGFLOPS * 1e9 * d.Profile.Efficiency}) // exactly 1s
				if _, err := d.Launch("test.noop", ctx); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait()
	})
	want := 3 * (time.Second + d.Profile.LaunchOverhead)
	if end != want {
		t.Errorf("3 serialized kernels took %v, want %v", end, want)
	}
}

func init() {
	Register("test.noop", func(ctx *KernelCtx) error { return nil })
	// test.fail charges a second of compute, then fails: a failed
	// launch must charge nothing.
	Register("test.fail", func(ctx *KernelCtx) error {
		ctx.Charge(costmodel.Work{Flops: 1e12})
		return errors.New("bad input")
	})
}

// TestLaunchAsyncFailures covers the executor's two failing launch
// paths: a kernel that is not registered and a kernel whose body
// fails. Each future carries its error, neither holds the compute
// engine past the failure (a launch from another stream finishes at
// exactly its modelled time), and the failing stream goes on to run its
// later commands in order.
func TestLaunchAsyncFailures(t *testing.T) {
	c, d, p := testRig()
	cpu := costmodel.DefaultCPU
	var order []string
	var elapsed time.Duration
	c.Run(func() {
		defer d.Close()
		s1, s2 := d.NewStream(cpu), d.NewStream(cpu)
		h := p.MustAllocate(16)
		defer h.Free()
		h.Pin()
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint32(h.Bytes()[i*4:], math.Float32bits(float32(i+1)))
		}
		in, _ := d.Malloc(16, 16)
		out, _ := d.Malloc(16, 16)
		defer d.Free(in)
		defer d.Free(out)

		t0 := c.Now()
		unknown, failed, other := NewFuture(c), NewFuture(c), NewFuture(c)
		s1.LaunchAsyncInto(unknown, "nope", &KernelCtx{})
		s1.LaunchAsyncInto(failed, "test.fail", &KernelCtx{})
		s1.Callback(func() { order = append(order, "after-failures") })
		s1.H2DAsync(in, h, 16)
		reused := NewFuture(c)
		reused.err = errors.New("stale")
		s1.LaunchAsyncInto(reused, "test.double", &KernelCtx{In: []*Buffer{in}, Out: []*Buffer{out}, N: 4, Nominal: 4})
		s1.Callback(func() { order = append(order, "after-launch") })

		ctx := &KernelCtx{Nominal: 1}
		ctx.Charge(costmodel.Work{Flops: d.Profile.SPGFLOPS * 1e9 * d.Profile.Efficiency}) // exactly 1s
		s2.LaunchAsyncInto(other, "test.noop", ctx)

		other.ev.Wait()
		elapsed = c.Now() - t0
		if t := c.Process(); !s1.SynchronizeTask(t) {
			t.Park()
		}
		order = append(order, "synchronized")
		if _, err := unknown.Result(); err == nil || !strings.Contains(err.Error(), `kernel "nope" not registered`) {
			t.Errorf("unregistered launch: err = %v", err)
		}
		if dur, err := failed.Result(); err == nil || !strings.Contains(err.Error(), "bad input") || dur != 0 {
			t.Errorf("failing launch: dur %v, err %v; want 0 and the kernel's error", dur, err)
		}
		if _, err := other.Result(); err != nil {
			t.Fatal(err)
		}
		if _, err := reused.Result(); err != nil {
			t.Errorf("launch after the failures: %v", err)
		}
		for i := 0; i < 4; i++ {
			if got := math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[i*4:])); got != float32(i+1)*2 {
				t.Errorf("out[%d] = %v after the failures, want %v", i, got, float32(i+1)*2)
			}
		}
	})
	if want := time.Second + d.Profile.LaunchOverhead; elapsed != want {
		t.Errorf("launch beside the failing stream took %v, want %v", elapsed, want)
	}
	if got := strings.Join(order, ","); got != "after-failures,after-launch,synchronized" {
		t.Errorf("command order %s", got)
	}
	if n := d.Stats().Kernels; n != 2 {
		t.Errorf("kernel count = %d, want 2 (failed launches are not counted)", n)
	}
}

func TestStreamOrderingAndOverlap(t *testing.T) {
	c := vclock.New()
	// Two copy engines so H2D and D2H overlap.
	d := NewDevice(c, 0, 0, costmodel.K20, costmodel.DefaultPCIe)
	p := membuf.NewPool(c, costmodel.Default(), membuf.Config{PageSize: 4096})
	cpu := costmodel.DefaultCPU
	var elapsed time.Duration
	c.Run(func() {
		defer d.Close()
		s1 := d.NewStream(cpu)
		s2 := d.NewStream(cpu)
		h1 := p.MustAllocate(4)
		h2 := p.MustAllocate(4)
		defer h1.Free()
		defer h2.Free()
		h1.Pin()
		h2.Pin()
		b1, _ := d.Malloc(100<<20, 4)
		b2, _ := d.Malloc(100<<20, 4)
		t0 := c.Now()
		// Opposite directions on different streams: with 2 copy engines
		// these overlap.
		s1.H2DAsync(b1, h1, 100<<20)
		s2.D2HAsync(h2, b2, 100<<20)
		for _, s := range []*Stream{s1, s2} {
			if t := c.Process(); !s.SynchronizeTask(t) {
				t.Park()
			}
		}
		elapsed = c.Now() - t0
	})
	if want := costmodel.DefaultPCIe.TransferTime(100 << 20); elapsed != want {
		t.Errorf("full-duplex streams took %v, want %v", elapsed, want)
	}
}

func TestHalfDuplexSerializesDirections(t *testing.T) {
	c := vclock.New()
	d := NewDevice(c, 0, 0, costmodel.C2050, costmodel.DefaultPCIe) // 1 copy engine
	p := membuf.NewPool(c, costmodel.Default(), membuf.Config{PageSize: 4096})
	cpu := costmodel.DefaultCPU
	var elapsed time.Duration
	c.Run(func() {
		defer d.Close()
		s1 := d.NewStream(cpu)
		s2 := d.NewStream(cpu)
		h1 := p.MustAllocate(4)
		h2 := p.MustAllocate(4)
		defer h1.Free()
		defer h2.Free()
		h1.Pin()
		h2.Pin()
		b1, _ := d.Malloc(100<<20, 4)
		b2, _ := d.Malloc(100<<20, 4)
		t0 := c.Now()
		s1.H2DAsync(b1, h1, 100<<20)
		s2.D2HAsync(h2, b2, 100<<20)
		for _, s := range []*Stream{s1, s2} {
			if t := c.Process(); !s.SynchronizeTask(t) {
				t.Park()
			}
		}
		elapsed = c.Now() - t0
	})
	if want := 2 * costmodel.DefaultPCIe.TransferTime(100<<20); elapsed != want {
		t.Errorf("half-duplex streams took %v, want %v", elapsed, want)
	}
}

func TestAsyncCopyRequiresPinnedBuffer(t *testing.T) {
	c, d, p := testRig()
	defer func() {
		if recover() == nil {
			t.Error("H2DAsync with unpinned buffer did not panic")
		}
	}()
	c.Run(func() {
		defer d.Close()
		s := d.NewStream(costmodel.DefaultCPU)
		h := p.MustAllocate(4)
		defer h.Free()
		b, _ := d.Malloc(100, 4)
		s.H2DAsync(b, h, 100)
	})
}

func TestThreeStagePipelineOverlaps(t *testing.T) {
	// The heart of Section 5: with multiple streams, H2D(i+1) overlaps
	// K(i); total time approaches max-stage-sum rather than sum of all
	// stages.
	c := vclock.New()
	d := NewDevice(c, 0, 0, costmodel.K20, costmodel.DefaultPCIe)
	p := membuf.NewPool(c, costmodel.Default(), membuf.Config{PageSize: 4096})
	cpu := costmodel.DefaultCPU

	Register("test.sleepy", func(ctx *KernelCtx) error {
		ctx.Charge(costmodel.Work{Flops: d.Profile.SPGFLOPS * 1e9 * d.Profile.Efficiency * 0.1}) // 100ms
		return nil
	})
	const blocks = 8
	nominal := int64(250 << 20) // ~87ms transfer each way at 3 GB/s

	pipelined := c.Run(func() {
		defer d.Close()
		streams := []*Stream{d.NewStream(cpu), d.NewStream(cpu), d.NewStream(cpu)}
		futs := make([]*Future, 0, blocks)
		for i := 0; i < blocks; i++ {
			s := streams[i%len(streams)]
			h := p.MustAllocate(8)
			defer h.Free()
			h.Pin()
			in, err := d.Malloc(nominal, 8)
			if err != nil {
				t.Fatal(err)
			}
			out, err := d.Malloc(nominal, 8)
			if err != nil {
				t.Fatal(err)
			}
			s.H2DAsync(in, h, nominal)
			f := NewFuture(c)
			s.LaunchAsyncInto(f, "test.sleepy", &KernelCtx{In: []*Buffer{in}, Out: []*Buffer{out}, Nominal: 1})
			futs = append(futs, f)
			s.D2HAsync(h, out, nominal)
		}
		for _, s := range streams {
			if t := c.Process(); !s.SynchronizeTask(t) {
				t.Park()
			}
		}
		for _, f := range futs {
			if _, err := f.Result(); err != nil {
				t.Error(err)
			}
		}
	})

	// Serial reference: every stage strictly in order on one stream.
	c2 := vclock.New()
	d2 := NewDevice(c2, 0, 0, costmodel.K20, costmodel.DefaultPCIe)
	p2 := membuf.NewPool(c2, costmodel.Default(), membuf.Config{PageSize: 4096})
	serial := c2.Run(func() {
		defer d2.Close()
		s := d2.NewStream(cpu)
		for i := 0; i < blocks; i++ {
			h := p2.MustAllocate(8)
			defer h.Free()
			h.Pin()
			in, _ := d2.Malloc(nominal, 8)
			out, _ := d2.Malloc(nominal, 8)
			s.H2DAsync(in, h, nominal)
			s.LaunchAsyncInto(NewFuture(c2), "test.sleepy", &KernelCtx{In: []*Buffer{in}, Out: []*Buffer{out}, Nominal: 1})
			s.D2HAsync(h, out, nominal)
			if t := c2.Process(); !s.SynchronizeTask(t) {
				t.Park()
			}
		}
	})
	if float64(pipelined) > 0.55*float64(serial) {
		t.Errorf("pipelining gained too little: pipelined %v vs serial %v", pipelined, serial)
	}
}

// TestMallocSplitMatchesMalloc holds the split form a stream worker's
// step uses — MallocReserve, the MallocOverhead sleep, MallocFill — to
// Malloc: the same buffer ids, the same simulated time, the same
// zeroed recycled backing, and the same failure. The reserved bytes
// are visible to other processes during the sleep.
func TestMallocSplitMatchesMalloc(t *testing.T) {
	type trace struct {
		ids    []int64
		data   [][]byte
		end    time.Duration
		during int64
		err    string
	}
	run := func(split bool) trace {
		c, d, _ := testRig()
		var tr trace
		malloc := func(nominal int64, real int) (*Buffer, error) {
			if !split {
				return d.Malloc(nominal, real)
			}
			b, err := d.MallocReserve(nominal, real)
			if err != nil {
				return nil, err
			}
			c.Sleep(MallocOverhead)
			d.MallocFill(b, real)
			return b, nil
		}
		tr.end = c.Run(func() {
			c.Go("observer", func() {
				c.Sleep(MallocOverhead / 2)
				tr.during = d.UsedBytes()
			})
			a, err := malloc(1<<20, 16)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Bytes() {
				a.Bytes()[i] = 0xff
			}
			d.Free(a)
			// The recycled shell comes back with a smaller, zeroed backing.
			b, err := malloc(1<<10, 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := malloc(d.Profile.MemBytes, 0); err != nil {
				tr.err = err.Error()
			}
			tr.ids = append(tr.ids, a.id, b.id)
			tr.data = append(tr.data, append([]byte(nil), b.Bytes()...))
			d.Free(b)
		})
		return tr
	}
	whole, split := run(false), run(true)
	if !reflect.DeepEqual(whole, split) {
		t.Fatalf("split malloc = %+v, want Malloc's %+v", split, whole)
	}
	if whole.during != 1<<20 {
		t.Errorf("UsedBytes during the first malloc's overhead = %d, want the reserved %d", whole.during, 1<<20)
	}
	if want := make([]byte, 8); !reflect.DeepEqual(whole.data[0], want) || whole.err == "" {
		t.Errorf("recycled backing = %v (want zeroed), over-capacity error %q (want one)", whole.data[0], whole.err)
	}
}
