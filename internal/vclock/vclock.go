// Package vclock implements a deterministic virtual-time kernel for the
// GFlink simulator.
//
// Every concurrent component of the simulated cluster (task slots, CUDA
// streams, DMA engines, network transfers, disks) runs as a process
// registered with a Clock, and every process is a Task: a coroutine
// (Go), or a stackless step function the dispatcher calls in place
// (Spawn). Processes may block only through the primitives provided by
// this package (Sleep, Queue, Semaphore, Event, ...). Each blocking
// primitive has one body, its task form, which reports a wait instead
// of parking: a step returns on it, and a coroutine parks through
// Clock.Process and Task.Park, which is all the stackful forms add. A
// step runs stackful code only on a stack it borrows for one Task.Call.
// Scheduling is cooperative: Run resumes one process at a time on its
// caller's goroutine, and when that process blocks it yields back to
// Run, which resumes the next ready process in FIFO wake order. The
// clock advances to the earliest pending deadline exactly when no
// process is ready, which makes simulated schedules —
// including the admission order at contended semaphores when several
// processes wake at the same instant — deterministic and independent of
// host scheduling, GOMAXPROCS, or wall time. A task waits in the same
// queues as a process, so whether a waiter is a task or a coroutine
// never changes when it wakes.
//
// The clock is the lock: because exactly one process runs at a time,
// and every switch between processes is a coroutine handoff (or a step
// call) on Run's goroutine, the clock's state and the state of every
// primitive need no mutex. The code between two blocking calls of a
// process runs atomically with respect to every other process of the
// same clock.
//
// Dispatch has one queue and the timer heap: the next readied process,
// else the earliest timer in (deadline, seq) order, advancing the clock
// to its deadline. That is the textbook wake order the test-only
// reference scheduler checks (see DESIGN.md "Simulator engine").
//
// If every process is blocked and no timer is pending, the simulation
// cannot make progress; the kernel panics with a diagnostic listing the
// blocked processes, which turns would-be hangs into debuggable errors.
package vclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// park gives up t's execution slot: the coroutine switches back to the
// dispatch loop in Run, which resumes it once a dispatch selects it
// again. Callers must have let block choose the next process first.
func (c *Clock) park(t *Task) {
	c.parks++
	// A coroutine switch through iter.Pull's yield allocates nothing.
	t.yield(struct{}{})
}

// Parks reports how many times a process has parked its coroutine: the
// count of coroutine round trips the run has paid. Task waits and
// self-waking sleeps do not park; a wait inside a task's Call does.
func (c *Clock) Parks() uint64 { return c.parks }

// Census indices for the closed set of built-in block reasons. The
// blocked-process census is a fixed-index counter array — not a map —
// so the hot park/wake path never hashes a string; semaphores register
// their "sem:<name>" labels with RegisterReason at construction.
const (
	reasonSleep = iota
	reasonQueue
	reasonEvent
	numBuiltinReasons
)

// Clock is a virtual-time scheduler. The zero value is not usable; use
// New.
//
// A Clock and everything bound to it are owned by one goroutine: the
// one that builds the simulation and calls Run. During Run only the
// running process touches them, and Run resumes processes one at a
// time on that same goroutine.
type Clock struct {
	now     time.Duration
	running int   // processes currently executing: 0 or 1 once Run starts
	total   int   // registered processes alive
	cur     *Task // the process holding the execution slot
	// nextp is the process the last dispatch chose, for Run's loop to
	// resume once the current process has parked or exited; nil when
	// the dispatch kept the slot with its caller or found nothing to run.
	nextp *Task
	// runq holds readied processes in wake order. Dispatch order is
	// runq, then the earliest timer of the heap.
	runq    Ring[*Task]
	timers  timerHeap
	seq     uint64 // tie-break for identical deadlines; preserves FIFO order
	parks   uint64 // coroutine parks so far (Parks)
	started bool   // set by Run; no advancement/deadlock checks before it
	// Fixed-index blocked census for deadlock diagnostics: blockedN[i]
	// processes are parked for reasonLabels[i].
	reasonLabels []string
	blockedN     []int
	// panicked records a panic raised inside a process so Run can
	// re-raise it on the caller's goroutine.
	panicked any
	hasPanic bool
	// Free lists recycling park machinery across blocks: a wake-up
	// targets the process shell, so waiter shells are reusable the
	// moment their wake is queued. Timers live by value in the heap and
	// need no free list. This keeps the park/wake cycle in Sleep and the
	// primitives allocation-free at steady state (invariant 10).
	freeWaiters []*waiter
	freeProcs   []*Task
}

// New returns a Clock positioned at virtual time zero.
func New() *Clock {
	return &Clock{
		// Every run readies several processes at once, so the run queue
		// starts at eight slots rather than growing through one, two and
		// four.
		runq:         Ring[*Task]{buf: make([]*Task, 8)},
		reasonLabels: []string{"sleep", "queue", "event"},
		blockedN:     make([]int, numBuiltinReasons),
	}
}

// RegisterReason interns a block-reason label for the deadlock census
// and returns its fixed index. Labels are deduplicated, so primitives
// sharing a name share a census row.
func (c *Clock) RegisterReason(label string) int {
	for i, l := range c.reasonLabels {
		if l == label {
			return i
		}
	}
	c.reasonLabels = append(c.reasonLabels, label)
	c.blockedN = append(c.blockedN, 0)
	return len(c.reasonLabels) - 1
}

// Now reports the current virtual time as a duration since the start of
// the simulation. Only the dispatcher writes it, and only while every
// process is parked, so a process reads it as a plain field.
func (c *Clock) Now() time.Duration { return c.now }

// Go spawns fn as a new registered process. Only a process (or task)
// of this clock may call Go, or — before Run — the goroutine that will
// call Run. The new process does not run immediately: it joins the ready
// queue and is dispatched when the current process blocks or exits, so
// spawn order — not host scheduling — decides execution order.
func (c *Clock) Go(name string, fn func()) {
	p := c.takeProc(name)
	p.next, _ = coroutine(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				c.recordPanic(p, r)
			}
			c.exit(p)
		}()
		fn()
	})
	c.total++
	c.runq.Push(p)
}

// Run executes root as the initial process and blocks until every
// process has finished. It returns the final virtual time. Run may be
// called once per Clock.
//
// Run's goroutine is the only runner: it resumes the process each
// dispatch chooses and regains control when that process parks or
// exits, so exactly one process executes at a time by construction and
// a handoff is a coroutine switch, not a wake-up of another goroutine.
// A task's step is called in place, with no switch at all.
//
// Processes spawned before Run (e.g., stream executor tasks created
// during deployment construction) may block on primitives; the clock neither
// advances nor declares deadlock until Run starts.
func (c *Clock) Run(root func()) time.Duration {
	c.Go("root", root)
	c.started = true
	// Kick the dispatcher: processes spawned before Run (including root)
	// are parked in the ready queue and run from here on, one at a time.
	c.dispatch(nil)
	c.loop()
	if c.hasPanic {
		panic(c.panicked)
	}
	return c.now
}

// loop resumes the process each dispatch chooses until none is left:
// every process exited, or the last dispatch found a deadlock (possibly
// after a process panicked). A process recovers its own panic; a
// task's panic is recovered here and ends the run.
func (c *Clock) loop() {
	var p *Task
	defer func() {
		if r := recover(); r != nil {
			c.nextp = nil
			c.recordPanic(p, r)
		}
	}()
	for c.nextp != nil {
		p = c.nextp
		c.nextp = nil
		p.next()
	}
}

// recordPanic keeps the first panic raised inside a process or step,
// naming it, for Run to re-raise on its caller's goroutine.
func (c *Clock) recordPanic(p *Task, r any) {
	if !c.hasPanic {
		c.hasPanic = true
		c.panicked = fmt.Errorf("process %q panicked: %v", p.name, r)
	}
}

// exit unregisters the calling process, recycles its shell and chooses
// the next process to run. Nothing references the shell once its
// coroutine returns, so it is immediately reusable by a future Go.
func (c *Clock) exit(p *Task) {
	c.running--
	c.total--
	c.putProc(p)
	c.dispatch(nil)
}

// Sleep blocks the calling process for d of virtual time: Task.Sleep,
// parking the process's coroutine when the timer does not head the next
// dispatch. A negative duration counts as zero. A zero sleep does not
// advance time, but it still round-trips through the timer heap, so
// wake-ups co-scheduled at the same instant occur in FIFO order.
func (c *Clock) Sleep(d time.Duration) {
	if t := c.Process(); !t.Sleep(d) {
		t.Park()
	}
}

// takeProc returns a recycled (or new) process shell.
func (c *Clock) takeProc(name string) *Task {
	if n := len(c.freeProcs); n > 0 {
		p := c.freeProcs[n-1]
		c.freeProcs[n-1] = nil
		c.freeProcs = c.freeProcs[:n-1]
		p.name = name
		return p
	}
	return &Task{name: name, c: c}
}

// putProc recycles an exited process's shell.
func (c *Clock) putProc(p *Task) {
	p.next, p.yield = nil, nil
	p.name = ""
	c.freeProcs = append(c.freeProcs, p)
}

// takeWaiter returns a recycled (or new) waiter parked for p with n
// units requested.
func (c *Clock) takeWaiter(p *Task, n int64) *waiter {
	if l := len(c.freeWaiters); l > 0 {
		w := c.freeWaiters[l-1]
		c.freeWaiters[l-1] = nil
		c.freeWaiters = c.freeWaiters[:l-1]
		w.p = p
		w.n = n
		return w
	}
	return &waiter{p: p, n: n}
}

// putWaiter recycles a waiter whose wake has been queued: the waker
// recycles it, since the wake targets the process shell.
func (c *Clock) putWaiter(w *waiter) {
	w.p = nil
	w.n = 0
	c.freeWaiters = append(c.freeWaiters, w)
}

// block marks the calling process blocked for the given census reason
// and hands the execution slot to the next ready process (advancing the
// clock if none is ready). self is the calling process when the caller
// can be woken by a timer it just armed; block returns true when the
// dispatcher re-selected self, in which case the caller keeps the slot
// and must NOT park. Otherwise the caller must park (c.park) next, or,
// for a task, return from its step.
func (c *Clock) block(idx int, self *Task) bool {
	c.running--
	c.blockedN[idx]++
	return c.dispatch(self)
}

// ready marks one process blocked for the given census reason as ready
// to run again. It joins the ready queue but does not execute until
// dispatched — the waker keeps the execution slot until it blocks or
// exits, and queued wake order is what makes contended admissions
// deterministic.
func (c *Clock) ready(idx int, p *Task) {
	c.blockedN[idx]--
	c.runq.Push(p)
}

// dispatch hands the execution slot to the next process in wake order:
// a readied process first, else the earliest timer, whose deadline the
// clock advances to. Timers sharing a deadline fire one per dispatch in
// seq order, with the processes each one readies running in between; a
// timer armed at that instant meanwhile carries a larger seq, so it
// fires after every timer already pending there.
//
// dispatch returns true when the selected process is self: the caller
// keeps the execution slot and does not park.
func (c *Clock) dispatch(self *Task) bool {
	if !c.started || c.running > 0 || c.total == 0 {
		return false
	}
	if p, ok := c.runq.Pop(); ok {
		return c.handoff(p, self)
	}
	if len(c.timers) == 0 {
		c.deadlock()
		return false
	}
	t := c.timers.pop()
	c.now = t.deadline
	c.blockedN[reasonSleep]--
	return c.handoff(t.p, self)
}

// handoff gives p the execution slot. A handoff to self is the fast
// path: the caller just keeps running. Otherwise p becomes the process
// Run's loop resumes once the caller parks or exits.
func (c *Clock) handoff(p, self *Task) bool {
	c.running++
	c.cur = p
	if p == self {
		return true
	}
	c.nextp = p
	return false
}

// deadlock ends the simulation with a deadlock diagnostic. Either a
// process died by panic (simulation already compromised) or this is a
// genuine deadlock. The error surfaces from Run on the caller's
// goroutine rather than as a panic inside the dispatching process. No
// process is chosen, so Run's loop ends; the parked coroutines are
// never resumed and are leaked.
func (c *Clock) deadlock() {
	if !c.hasPanic {
		c.hasPanic = true
		c.panicked = fmt.Errorf("vclock: deadlock: all processes blocked with no pending timer\n%s", c.diagnostic())
	}
}

// diagnostic renders the blocked-process census for deadlock panics:
// the nonzero reasons, sorted by label.
func (c *Clock) diagnostic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  virtual time: %v\n  processes alive: %d\n  blocked on:\n", c.now, c.total)
	type row struct {
		label string
		n     int
	}
	var rows []row
	for i, n := range c.blockedN {
		if n != 0 {
			rows = append(rows, row{c.reasonLabels[i], n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	for _, r := range rows {
		fmt.Fprintf(&b, "    %-12s %d\n", r.label, r.n)
	}
	return b.String()
}

// timer is one pending Sleep deadline, held by value in the heap; the
// wake targets the parked process's shell.
type timer struct {
	deadline time.Duration
	seq      uint64
	p        *Task
}

// before orders timers by (deadline, seq). Sequence numbers are unique,
// so the order is total and the heap pops timers in exactly one order.
func (t *timer) before(u *timer) bool {
	return t.deadline < u.deadline || t.deadline == u.deadline && t.seq < u.seq
}

// timerHeap is a binary min-heap of timers ordered by before.
type timerHeap []timer

// push inserts t, sifting it up from the new leaf.
func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = t
	*h = s
}

// pop removes and returns the earliest timer; the heap must be
// non-empty. The last leaf sifts down from the root into the hole.
func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = timer{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && s[r].before(&s[child]) {
				child = r
			}
			if !s[child].before(&last) {
				break
			}
			s[i] = s[child]
			i = child
		}
		s[i] = last
	}
	*h = s
	return top
}
