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
// primitives — Sleep, Semaphore.AcquireTask and Queue.GetTask — and
// returns as soon as one of them reports that the task was parked; the
// next dispatch of the task calls step again from the top, so the step
// keeps its own state of where it left off. A step ends the task with
// Exit and then returns. A step never calls a stackful primitive
// (Clock.Sleep, Semaphore.Acquire, Queue.Get, Event.Wait): there is no
// stack to park, and the one that would block panics naming the task.
type Task struct {
	proc
	c *Clock
}

// Spawn registers step as a new task. Like Go, it may be called by a
// process (or a task) of this clock or, before Run, by Run's
// goroutine; the task joins the ready queue and its first step runs
// when the current process blocks or exits.
func (c *Clock) Spawn(name string, step func()) *Task {
	t := &Task{proc: proc{name: name}, c: c}
	t.next = func() (struct{}, bool) {
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

// Exit unregisters the task and hands the execution slot on. The step
// must return right after it.
func (t *Task) Exit() {
	t.c.running--
	t.c.total--
	t.c.dispatch(nil)
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

// parker returns the calling process of a stackful primitive that is
// about to park it. A task has no stack to park, so a step that gets
// here panics naming the task before any clock state changes.
//
//gflink:hotpath
func (c *Clock) parker() *proc {
	p := c.cur
	if p.yield == nil {
		//gflink:allow-alloc panic diagnostic on a step misusing a stackful primitive
		panic(fmt.Sprintf("vclock: task %q called a stackful blocking primitive; a step must use the task forms", p.name))
	}
	return p
}
