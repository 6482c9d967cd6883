package gpu

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

// cmdOp selects which stream command a pooled cmd shell carries.
type cmdOp uint8

const (
	opH2D cmdOp = iota
	opH2DRanges
	opD2H
	opLaunch
	opCallback
)

// cmd is a pooled stream command. Commands used to be heap-allocated
// closures — one per async op, which made every GWork pay three
// closure allocations on the pinned hot route. Shells now recycle
// through a per-stream free list: the submitting process takes a shell,
// the stream's executor process returns it after running the command.
// The two processes share the free list without locking for the same
// reason every other cooperative-scheduler scratch does: the virtual
// clock runs exactly one process at a time, with happens-before edges
// through the clock's own synchronization.
type cmd struct {
	op      cmdOp
	dbuf    *Buffer         // device side of a copy
	hbuf    *membuf.HBuffer // host side of a copy
	ranges  []CopyRange
	nominal int64
	name    string
	ctx     *KernelCtx
	fut     *Future
	fn      func()
}

// Stream is a CUDA stream: a FIFO command queue executed by its own
// virtual-time process. Commands within one stream run in order;
// commands on different streams overlap, which is what the three-stage
// H2D / kernel / D2H pipeline exploits (Section 5).
type Stream struct {
	dev  *Device
	id   int
	cpu  costmodel.CPU
	q    *vclock.Queue[*cmd]
	done *vclock.Event
	// syncEv/syncSet are the reusable Synchronize rendezvous: one event,
	// reset per call, plus its prebuilt Set closure, so synchronizing a
	// stream allocates nothing. Safe because a stream has one
	// synchronizer at a time (its owning stream worker).
	syncEv  *vclock.Event
	syncSet func()
	// freeCmds recycles command shells between the submitter and the
	// executor process (see cmd).
	freeCmds []*cmd
}

// NewStream creates a stream and starts its executor process. Streams
// must be closed via Device.Close (or Stream.close) before the
// simulation ends.
func (d *Device) NewStream(cpu costmodel.CPU) *Stream {
	if d.closed {
		panic("gpu: NewStream on closed device")
	}
	s := &Stream{
		dev:  d,
		id:   len(d.streams),
		cpu:  cpu,
		q:    vclock.NewQueue[*cmd](d.clock),
		done: vclock.NewEvent(d.clock),
	}
	s.syncEv = vclock.NewEvent(d.clock)
	s.syncSet = s.syncEv.Set
	d.streams = append(d.streams, s)
	d.clock.Go(fmt.Sprintf("gpu%d-stream%d", d.ID, s.id), s.run)
	return s
}

// takeCmd pops a command shell from the free list.
//
//gflink:hotpath
func (s *Stream) takeCmd() *cmd {
	if n := len(s.freeCmds); n > 0 {
		c := s.freeCmds[n-1]
		s.freeCmds = s.freeCmds[:n-1]
		return c
	}
	//gflink:allow-alloc pool cold start: command shells recycle through the free list thereafter
	return &cmd{}
}

// recycle clears a shell's references and returns it to the free list.
// Only the executor process calls this, after the command has run.
func (s *Stream) recycle(c *cmd) {
	*c = cmd{}
	s.freeCmds = append(s.freeCmds, c)
}

func (s *Stream) run() {
	defer s.done.Set()
	for {
		c, ok := s.q.Get()
		if !ok {
			return
		}
		s.exec(c)
		s.recycle(c)
	}
}

// exec runs one command on the executor process.
func (s *Stream) exec(c *cmd) {
	switch c.op {
	case opH2D:
		s.dev.h2d.Acquire(1)
		s.dev.clock.Sleep(s.dev.pcie.TransferTime(c.nominal))
		s.dev.h2d.Release(1)
		copy(c.dbuf.data, c.hbuf.Bytes())
		s.dev.count(&s.dev.h2dCopies, &s.dev.h2dBytes, c.nominal)
	case opH2DRanges:
		s.dev.h2d.Acquire(1)
		s.dev.clock.Sleep(s.dev.pcie.TransferTime(c.nominal))
		s.dev.h2d.Release(1)
		for _, r := range c.ranges {
			clampCopy(c.dbuf.data, c.hbuf.Bytes(), r)
		}
		s.dev.count(&s.dev.h2dCopies, &s.dev.h2dBytes, c.nominal)
	case opD2H:
		s.dev.d2h.Acquire(1)
		s.dev.clock.Sleep(s.dev.pcie.TransferTime(c.nominal))
		s.dev.d2h.Release(1)
		copy(c.hbuf.Bytes(), c.dbuf.data)
		s.dev.count(&s.dev.d2hCopies, &s.dev.d2hBytes, c.nominal)
	case opLaunch:
		c.fut.dur, c.fut.err = s.dev.Launch(c.name, c.ctx)
		c.fut.ev.Set()
	case opCallback:
		c.fn()
	}
}

func (s *Stream) close() {
	s.q.Close()
	s.done.Wait()
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// H2DAsync enqueues an asynchronous host-to-device copy. As with
// cudaMemcpyH2DAsync, the host buffer must be page-locked; enqueuing an
// unpinned buffer panics, surfacing the programming error the paper's
// cudaHostRegister step exists to prevent.
//
//gflink:hotpath
func (s *Stream) H2DAsync(dst *Buffer, src *membuf.HBuffer, nominal int64) {
	if !src.Pinned() {
		panic("gpu: H2DAsync requires a page-locked host buffer")
	}
	c := s.takeCmd()
	c.op, c.dbuf, c.hbuf, c.nominal = opH2D, dst, src, nominal
	s.q.Put(c)
}

// CopyRange is one byte range of a host/device buffer pair, used by the
// projected transfer path. Off/Len address the *real* backing bytes;
// the virtual-time charge comes from the separate nominal argument.
type CopyRange struct {
	Off, Len int
}

// clampCopy copies src[off:off+len] into dst[off:off+len], clamping the
// range to both slices (real backings are scale-divided, so a nominal
// range may exceed them).
func clampCopy(dst, src []byte, r CopyRange) {
	if r.Off >= len(src) || r.Off >= len(dst) || r.Len <= 0 {
		return
	}
	end := r.Off + r.Len
	if end > len(src) {
		end = len(src)
	}
	if end > len(dst) {
		end = len(dst)
	}
	copy(dst[r.Off:end], src[r.Off:end])
}

// H2DRangesAsync enqueues one asynchronous host-to-device copy that
// moves only the given real byte ranges (at their original offsets, so
// device-side column addressing is unchanged) while charging nominal
// bytes of PCIe time — the projected-column transfer of the paper's
// transfer channel.
//
//gflink:hotpath
func (s *Stream) H2DRangesAsync(dst *Buffer, src *membuf.HBuffer, ranges []CopyRange, nominal int64) {
	if !src.Pinned() {
		panic("gpu: H2DRangesAsync requires a page-locked host buffer")
	}
	c := s.takeCmd()
	c.op, c.dbuf, c.hbuf, c.ranges, c.nominal = opH2DRanges, dst, src, ranges, nominal
	s.q.Put(c)
}

// D2HAsync enqueues an asynchronous device-to-host copy into a
// page-locked buffer.
//
//gflink:hotpath
func (s *Stream) D2HAsync(dst *membuf.HBuffer, src *Buffer, nominal int64) {
	if !dst.Pinned() {
		panic("gpu: D2HAsync requires a page-locked host buffer")
	}
	c := s.takeCmd()
	c.op, c.dbuf, c.hbuf, c.nominal = opD2H, src, dst, nominal
	s.q.Put(c)
}

// LaunchAsync enqueues a kernel launch. Errors surface through the
// returned future. Each call allocates a fresh future, so callers may
// hold any number of them outstanding; hot paths that launch one
// kernel at a time should use LaunchAsyncInto with a reusable Future
// instead.
func (s *Stream) LaunchAsync(name string, ctx *KernelCtx) *Future {
	f := &Future{ev: vclock.NewEvent(s.dev.clock)}
	s.launch(f, name, ctx)
	return f
}

// LaunchAsyncInto enqueues a kernel launch that completes through the
// caller-owned reusable future f (see NewFuture). The future is valid
// until the caller's next LaunchAsyncInto with the same future; a
// stream worker that waits on each launch before issuing the next one
// can therefore run an unbounded number of launches with zero
// allocations.
//
//gflink:hotpath
func (s *Stream) LaunchAsyncInto(f *Future, name string, ctx *KernelCtx) {
	f.ev.Reset()
	s.launch(f, name, ctx)
}

//gflink:hotpath
func (s *Stream) launch(f *Future, name string, ctx *KernelCtx) {
	c := s.takeCmd()
	c.op, c.fut, c.name, c.ctx = opLaunch, f, name, ctx
	s.q.Put(c)
}

// Callback enqueues fn to run in stream order (cudaStreamAddCallback).
//
//gflink:hotpath
func (s *Stream) Callback(fn func()) {
	c := s.takeCmd()
	c.op, c.fn = opCallback, fn
	s.q.Put(c)
}

// Synchronize blocks the calling process until every previously
// enqueued command has completed (cudaStreamSynchronize). It reuses the
// stream's rendezvous event, so it allocates nothing; a stream supports
// one synchronizer at a time (its owning stream worker).
//
//gflink:hotpath
func (s *Stream) Synchronize() {
	s.syncEv.Reset()
	c := s.takeCmd()
	c.op, c.fn = opCallback, s.syncSet
	s.q.Put(c)
	s.syncEv.Wait()
}

// Future is the completion handle of an asynchronous launch.
type Future struct {
	ev  *vclock.Event
	dur time.Duration
	err error
}

// NewFuture builds a reusable completion handle for LaunchAsyncInto.
func NewFuture(c *vclock.Clock) *Future {
	return &Future{ev: vclock.NewEvent(c)}
}

// Wait blocks until the launch completes and returns its kernel
// duration and error.
func (f *Future) Wait() (time.Duration, error) {
	f.ev.Wait()
	return f.dur, f.err
}
