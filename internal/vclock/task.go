package vclock

import (
	"fmt"
	"time"
)

// Task is a registered process. A coroutine process (Go) is a task
// with a stack: its next resumes the coroutine until it parks or exits,
// and yield, captured when it first runs, parks it. A stackless task
// (Spawn) is a step function the dispatcher calls in place, on Run's
// goroutine, wherever it would resume a coroutine; its yield stays nil
// except inside Call. Either kind sits in the same places while it
// waits (the ready queue, a semaphore or queue waiter FIFO, the timer
// heap), so the dispatcher's wake order does not depend on which kind
// it wakes. A coroutine's shell is recycled through a free list when it
// exits.
//
// Each blocking operation has one body, its task form: Task.Sleep,
// Semaphore.AcquireTask, Queue.GetTask and Event.WaitTask. A form
// reports a wait instead of parking. A step returns as soon as one
// does; the next dispatch of the task calls step again from the top,
// so the step keeps its own state of where it left off, and ends the
// task with Exit. A coroutine process reaches the same forms through
// Clock.Process and Park, which is all the stackful primitives
// (Clock.Sleep, Semaphore.Acquire, Queue.Get, Event.Wait) add. A step
// calls those only inside Call, which lends it a stack; anywhere else
// Process panics naming the task.
type Task struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	name  string
	c     *Clock
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
	t := &Task{name: name, c: c}
	t.next = func() (struct{}, bool) {
		if t.fn != nil {
			// A Call parked: resume its function, and step again only
			// once it has finished.
			if t.resume(); t.fn != nil {
				return struct{}{}, true
			}
		}
		step()
		if c.cur == t && c.running > 0 && c.nextp == nil {
			// Nothing would resume anyone: Run would end early.
			panic("vclock: step returned without waiting or exiting")
		}
		return struct{}{}, true
	}
	c.total++
	c.runq.Push(t)
	return t
}

// Sleep arms a timer d of virtual time ahead; a negative d counts as
// zero. It returns true when the task's own timer heads the next
// dispatch (a self-wake, common when one worker races ahead of every
// other process): the task keeps the slot and goes on. It returns false
// when the task is parked: the step must return, and runs again once
// the timer fires.
func (t *Task) Sleep(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	c := t.c
	c.seq++
	c.timers.push(timer{deadline: c.now + d, seq: c.seq, p: t})
	return c.block(reasonSleep, t)
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

// AcquireTask takes n units of the semaphore for t, in FIFO order. n
// greater than the capacity panics (it could never succeed). It returns
// true when the n units were taken at once. It returns false when t joined the FIFO wait
// queue and was parked: the step must return, and when it runs again
// the units are already charged to t, as they are to a process whose
// Acquire returns.
func (s *Semaphore) AcquireTask(t *Task, n int64) bool {
	if n > s.cap {
		panic("vclock: semaphore acquire exceeds capacity: " + s.name)
	}
	if s.waiters.Len() == 0 && s.free >= n {
		s.free -= n
		return true
	}
	s.waiters.Push(s.c.takeWaiter(t, n))
	s.c.block(s.reasonIdx, nil)
	return false
}

// GetTask removes the oldest item for t. On a buffered item it returns
// (v, true, false), and on a closed, drained queue (zero, false, false). wait is
// true when t was parked on the empty open queue: the step must return
// and call GetTask again when it runs next, just as Get re-checks
// after its process resumes.
func (q *Queue[T]) GetTask(t *Task) (v T, ok, wait bool) {
	if v, ok = q.items.Pop(); ok {
		return v, true, false
	}
	if q.closed {
		return v, false, false
	}
	q.waiters.Push(q.c.takeWaiter(t, 0))
	q.c.block(reasonQueue, nil)
	return v, false, true
}

// WaitTask waits for the event for t. It returns true when the event
// is already set. It returns false when t joined the event's waiters and
// was parked: the step must return, and when it runs again the event
// has fired, as it has for a process whose Wait returns.
func (e *Event) WaitTask(t *Task) bool {
	if e.set {
		return true
	}
	e.waiters.Push(e.c.takeWaiter(t, 0))
	e.c.block(reasonEvent, nil)
	return false
}

// Process returns the calling process, for a task form to act on: a
// coroutine process, or a step inside Call. After the form reports a
// wait, the process parks with Park. A step outside Call has no stack
// to park, so Process panics naming its task before any clock state
// changes.
func (c *Clock) Process() *Task {
	t := c.cur
	if t.yield == nil {
		panic(fmt.Sprintf("vclock: task %q called a stackful blocking primitive; a step must use the task forms or Call", t.name))
	}
	return t
}

// Park parks the coroutine of process t, which a task form has just
// reported waiting, until a primitive wakes it. Only Process's result
// may park.
func (t *Task) Park() { t.c.park(t) }
