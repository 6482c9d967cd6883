package vclock

import (
	"fmt"
	"time"
)

// Task is a stackless process: a step function the dispatcher calls in
// place, on Run's goroutine, wherever it would resume a process's
// coroutine. A task sits exactly where a parked process would (the
// ready queue, a semaphore or queue waiter FIFO, the timer heap), so
// the dispatcher's wake order does not depend on which kind it wakes.
//
// A step runs until it must wait. It blocks only through the task
// primitives — Sleep, Semaphore.AcquireTask, Queue.GetTask and
// Event.WaitTask — and returns as soon as one of them reports that the
// task was parked; the next dispatch of the task calls step again from
// the top, so the step keeps its own state of where it left off. A step
// ends the task with Exit and then returns. A step calls a stackful
// primitive (Clock.Sleep, Semaphore.Acquire, Queue.Get, Event.Wait)
// only inside Call, which lends it a stack; anywhere else there is no
// stack to park, and the primitive that would block panics naming the
// task.
type Task struct {
	proc
	c *Clock
	// The stack Call lends: the coroutine's resume and stop functions,
	// created by the first Call and reused by every later one, and the
	// function of the Call in flight (nil when none is).
	resume func() (struct{}, bool)
	stop   func()
	fn     func()
}

// Spawn registers step as a new task. Like Go, it may be called by a
// process (or a task) of this clock or, before Run, by Run's
// goroutine; the task joins the ready queue and its first step runs
// when the current process blocks or exits.
func (c *Clock) Spawn(name string, step func()) *Task {
	t := &Task{proc: proc{name: name}, c: c}
	t.next = func() (struct{}, bool) {
		if t.fn != nil {
			// A Call parked: resume its function, and step again only
			// once it has finished.
			if t.resume(); t.fn != nil {
				return struct{}{}, true
			}
		}
		step()
		if c.cur == &t.proc && c.running > 0 && c.nextp == nil {
			// Nothing would resume anyone: Run would end early.
			panic("vclock: step returned without waiting or exiting")
		}
		return struct{}{}, true
	}
	c.total++
	c.runq.Push(&t.proc)
	return t
}

// Sleep arms a timer d of virtual time ahead, exactly as Clock.Sleep
// does. It returns true when the task's own timer heads the next
// dispatch (a self-wake): the step keeps the slot and goes on. It
// returns false when the task is parked: the step must return, and
// runs again once the timer fires.
//
//gflink:hotpath
func (t *Task) Sleep(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	c := t.c
	c.seq++
	c.timers.push(timer{deadline: c.now + d, seq: c.seq, p: &t.proc})
	return c.block(reasonSleep, &t.proc)
}

// Exit unregisters the task, stops the stack Call lent it, if any, and
// hands the execution slot on. The step must return right after it.
func (t *Task) Exit() {
	if t.fn != nil {
		panic(fmt.Sprintf("vclock: task %q exited inside Call", t.name))
	}
	if t.stop != nil {
		t.stop()
		t.resume, t.stop = nil, nil
	}
	t.c.running--
	t.c.total--
	t.c.dispatch(nil)
}

// Call runs fn on a stack the task borrows, so fn may block through the
// stackful primitives. The task stays the current process throughout:
// fn's sleeps and waits take the same seq numbers, timers and waiter
// slots as they would in a process, and its parks count in Parks. Call
// returns true when fn finished without parking. It returns false when
// fn parked: the step must return, and the task's next dispatch resumes
// fn and calls the step again once fn has finished. The first Call
// creates the stack; later ones reuse it, and Exit stops it.
//
// Lending a stack costs two coroutine switches even when fn never
// blocks, so a step uses Call only around calls that may block.
func (t *Task) Call(fn func()) bool {
	if t.fn != nil {
		panic(fmt.Sprintf("vclock: task %q nested Call", t.name))
	}
	if t.resume == nil {
		t.resume, t.stop = coroutine(func(yield func(struct{}) bool) {
			for {
				t.yield = yield
				t.fn()
				t.yield, t.fn = nil, nil
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	t.fn = fn
	t.resume()
	return t.fn == nil
}

// AcquireTask is Acquire for a task. It returns true when the n units
// were taken at once. It returns false when t joined the FIFO wait
// queue and was parked: the step must return, and when it runs again
// the units are already charged to t, as they are to a process whose
// Acquire returns.
//
//gflink:hotpath
func (s *Semaphore) AcquireTask(t *Task, n int64) bool {
	if n > s.cap {
		//gflink:allow-alloc panic diagnostic on an impossible acquire
		panic("vclock: semaphore acquire exceeds capacity: " + s.name)
	}
	if s.waiters.Len() == 0 && s.free >= n {
		s.free -= n
		return true
	}
	s.waiters.Push(s.c.takeWaiter(&t.proc, n))
	s.c.block(s.reasonIdx, nil)
	return false
}

// GetTask is Get for a task. On a buffered item it returns (v, true,
// false), and on a closed, drained queue (zero, false, false). wait is
// true when t was parked on the empty open queue: the step must return
// and call GetTask again when it runs next, just as Get re-checks
// after its process resumes.
//
//gflink:hotpath
func (q *Queue[T]) GetTask(t *Task) (v T, ok, wait bool) {
	if v, ok = q.items.Pop(); ok {
		return v, true, false
	}
	if q.closed {
		return v, false, false
	}
	q.waiters.Push(q.c.takeWaiter(&t.proc, 0))
	q.c.block(reasonQueue, nil)
	return v, false, true
}

// WaitTask is Wait for a task. It returns true when the event is
// already set. It returns false when t joined the event's waiters and
// was parked: the step must return, and when it runs again the event
// has fired, as it has for a process whose Wait returns.
//
//gflink:hotpath
func (e *Event) WaitTask(t *Task) bool {
	if e.set {
		return true
	}
	e.waiters.Push(e.c.takeWaiter(&t.proc, 0))
	e.c.block(reasonEvent, nil)
	return false
}

// parker returns the calling process of a stackful primitive that is
// about to park it. A task has a stack to park only inside Call, so a
// step that gets here outside Call panics naming the task before any
// clock state changes.
//
//gflink:hotpath
func (c *Clock) parker() *proc {
	p := c.cur
	if p.yield == nil {
		//gflink:allow-alloc panic diagnostic on a step misusing a stackful primitive
		panic(fmt.Sprintf("vclock: task %q called a stackful blocking primitive; a step must use the task forms or Call", p.name))
	}
	return p
}
