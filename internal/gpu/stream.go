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
// the stream's executor task returns it after running the command.
// Both share the free list without locking for the same reason every
// other cooperative-scheduler scratch does: the virtual clock runs
// exactly one process or task at a time.
type cmd struct {
	op      cmdOp
	dbuf    *Buffer         // device side of a copy
	hbuf    *membuf.HBuffer // host side of a copy
	ranges  []CopyRange
	nominal int64
	name    string
	kernel  Func // the launch's kernel, resolved once when it starts
	ctx     *KernelCtx
	fut     *Future
	fn      func()
}

// execPhase is where a stream's executor stands in its current command.
type execPhase uint8

const (
	phaseIdle    execPhase = iota // no command: take the next one
	phaseGranted                  // holds the command's engine: start its busy time
	phaseSlept                    // the busy time has passed: release and complete
)

// Stream is a CUDA stream: a FIFO command queue run by its own
// virtual-time executor, a vclock.Task the dispatcher steps in place.
// Commands within one stream run in order; commands on different
// streams overlap, which is what the three-stage H2D / kernel / D2H
// pipeline exploits (Section 5).
type Stream struct {
	dev  *Device
	id   int
	cpu  costmodel.CPU
	q    *vclock.Queue[*cmd]
	done *vclock.Event
	// syncEv/syncSet are the reusable SynchronizeTask rendezvous: one
	// event, reset per call, plus its prebuilt Set closure, so
	// synchronizing a stream allocates nothing. Safe because a stream
	// has one synchronizer at a time (its owning stream worker).
	syncEv  *vclock.Event
	syncSet func()
	// freeCmds recycles command shells between the submitter and the
	// executor (see cmd).
	freeCmds []*cmd
	// The executor's state between steps: its task, its phase, the
	// command in flight and the engine that command holds.
	task   *vclock.Task
	phase  execPhase
	cur    *cmd
	engine *vclock.Semaphore
}

// NewStream creates a stream and starts its executor task. Streams
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
	s.task = d.clock.Spawn(fmt.Sprintf("gpu%d-stream%d", d.ID, s.id), s.step)
	return s
}

// takeCmd pops a command shell from the free list.
func (s *Stream) takeCmd() *cmd {
	if n := len(s.freeCmds); n > 0 {
		c := s.freeCmds[n-1]
		s.freeCmds = s.freeCmds[:n-1]
		return c
	}
	return &cmd{}
}

// step is the executor task's step. It runs the queued commands in
// FIFO order, one phase at a time, and returns whenever the task
// parks: on the empty queue, on the command's engine, or for the
// command's busy time. Across its calls it makes the primitive calls of
// the blocking loop "Get; engine Acquire; Sleep; Release" in the same
// order, so wake order and simulated time are those of that loop. A
// launch runs its kernel body once the compute engine is granted.
func (s *Stream) step() {
	for {
		c := s.cur
		switch s.phase {
		case phaseIdle:
			var ok, wait bool
			if c, ok, wait = s.q.GetTask(s.task); wait {
				return
			}
			if !ok {
				s.done.Set()
				s.task.Exit()
				return
			}
			engine := s.engineFor(c)
			if engine == nil {
				s.complete(c)
				continue
			}
			s.cur, s.engine, s.phase = c, engine, phaseGranted
			if !engine.AcquireTask(s.task, 1) {
				return
			}
		case phaseGranted:
			var busy time.Duration
			if c.op == opLaunch {
				var err error
				busy, err = s.dev.runKernel(c.name, c.kernel, c.ctx)
				c.fut.dur, c.fut.err = busy, err
				if err != nil {
					s.engine.Release(1)
					s.complete(c)
					continue
				}
			} else {
				busy = s.dev.pcie.TransferTime(c.nominal)
			}
			s.phase = phaseSlept
			if !s.task.Sleep(busy) {
				return
			}
		case phaseSlept:
			s.engine.Release(1)
			s.complete(c)
		}
	}
}

// engineFor returns the engine c runs on: the copy engine of its
// direction, or the compute engine for a launch of a registered
// kernel. It returns nil for a command that needs no engine: a
// callback, or a launch whose kernel is not registered (its future
// then carries the error).
func (s *Stream) engineFor(c *cmd) *vclock.Semaphore {
	switch c.op {
	case opH2D, opH2DRanges:
		return s.dev.h2d
	case opD2H:
		return s.dev.d2h
	case opLaunch:
		fn, err := lookupKernel(c.name)
		if err != nil {
			c.fut.dur, c.fut.err = 0, err
			return nil
		}
		c.kernel = fn
		return s.dev.compute
	}
	return nil
}

// complete finishes c once its engine is released (or it needed none):
// it moves a copy's bytes and counts it, counts a successful launch and
// sets its future, or runs a callback. Then it recycles the shell and
// leaves the executor idle.
func (s *Stream) complete(c *cmd) {
	d := s.dev
	switch c.op {
	case opH2D:
		copy(c.dbuf.data, c.hbuf.Bytes())
		d.count(&d.h2dCopies, &d.h2dBytes, c.nominal)
	case opH2DRanges:
		for _, r := range c.ranges {
			clampCopy(c.dbuf.data, c.hbuf.Bytes(), r)
		}
		d.count(&d.h2dCopies, &d.h2dBytes, c.nominal)
	case opD2H:
		copy(c.hbuf.Bytes(), c.dbuf.data)
		d.count(&d.d2hCopies, &d.d2hBytes, c.nominal)
	case opLaunch:
		if c.fut.err == nil {
			d.kernels++
		}
		c.fut.ev.Set()
	case opCallback:
		c.fn()
	}
	*c = cmd{}
	s.freeCmds = append(s.freeCmds, c)
	s.cur, s.engine, s.phase = nil, nil, phaseIdle
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
func (s *Stream) D2HAsync(dst *membuf.HBuffer, src *Buffer, nominal int64) {
	if !dst.Pinned() {
		panic("gpu: D2HAsync requires a page-locked host buffer")
	}
	c := s.takeCmd()
	c.op, c.dbuf, c.hbuf, c.nominal = opD2H, src, dst, nominal
	s.q.Put(c)
}

// LaunchAsyncInto enqueues a kernel launch that completes through the
// caller-owned reusable future f (see NewFuture). The future is valid
// until the caller's next LaunchAsyncInto with the same future; a
// stream worker that waits on each launch before issuing the next one
// can therefore run an unbounded number of launches with zero
// allocations.
func (s *Stream) LaunchAsyncInto(f *Future, name string, ctx *KernelCtx) {
	f.ev.Reset()
	s.launch(f, name, ctx)
}

func (s *Stream) launch(f *Future, name string, ctx *KernelCtx) {
	c := s.takeCmd()
	c.op, c.fut, c.name, c.ctx = opLaunch, f, name, ctx
	s.q.Put(c)
}

// Callback enqueues fn to run in stream order (cudaStreamAddCallback).
func (s *Stream) Callback(fn func()) {
	c := s.takeCmd()
	c.op, c.fn = opCallback, fn
	s.q.Put(c)
}

// SynchronizeTask waits for t until every previously enqueued command
// has completed (cudaStreamSynchronize). It returns true when the
// stream had already drained. It returns false when t was parked: the
// step must return, and when it runs again the stream has drained. It
// reuses the stream's rendezvous event, so it allocates nothing; a
// stream supports one synchronizer at a time (its owning stream
// worker).
func (s *Stream) SynchronizeTask(t *vclock.Task) bool {
	s.syncEv.Reset()
	s.Callback(s.syncSet)
	return s.syncEv.WaitTask(t)
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

// Result returns the kernel duration and error of a completed launch,
// for a caller that already knows the launch is done (a synchronize of
// its stream returned). It panics on a launch still in flight.
func (f *Future) Result() (time.Duration, error) {
	if !f.ev.IsSet() {
		panic("gpu: Future.Result on a launch still in flight")
	}
	return f.dur, f.err
}
