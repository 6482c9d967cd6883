// Package vclock implements a deterministic virtual-time kernel for the
// GFlink simulator.
//
// Every concurrent component of the simulated cluster (task slots, CUDA
// streams, DMA engines, network transfers, disks) runs as a coroutine
// registered with a Clock. Such a coroutine is called a process.
// Processes may block only through the primitives provided by this
// package (Sleep, Queue, Semaphore, Event, ...). Scheduling is
// cooperative: Run resumes one process at a time on its caller's
// goroutine, and when that process blocks it yields back to Run, which
// resumes the next ready process in FIFO wake order. The clock advances
// to the earliest pending deadline exactly when no process is ready,
// which makes simulated schedules —
// including the admission order at contended semaphores when several
// processes wake at the same instant — deterministic and independent of
// host scheduling, GOMAXPROCS, or wall time.
//
// Dispatch is batched: when the clock advances, every timer sharing the
// new instant is drained from the heap at once, in seq order, into a
// wake batch; readied processes still run before the next batch member
// fires, so the observable wake order is exactly the textbook one —
// next ready process, else one timer per step in (deadline, seq) order —
// that the test-only reference scheduler checks (see DESIGN.md
// "Simulator engine").
//
// If every process is blocked and no timer is pending, the simulation
// cannot make progress; the kernel panics with a diagnostic listing the
// blocked processes, which turns would-be hangs into debuggable errors.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// proc is one registered process: its coroutine (next resumes it until
// it parks or exits; yield, captured when it first runs, parks it) plus
// the process name for diagnostics. The shell is recycled through a free
// list when the process exits.
type proc struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	name  string
}

// park gives up the execution slot: the coroutine switches back to the
// dispatch loop in Run, which resumes it once a dispatch selects it
// again. Callers must have released c.mu after block chose the next
// process.
//
//gflink:hotpath
func (p *proc) park() {
	//gflink:allow-alloc a coroutine switch through iter.Pull's yield allocates nothing
	p.yield(struct{}{})
}

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
type Clock struct {
	mu  sync.Mutex
	now time.Duration
	// nowNanos mirrors now for lock-free Now(): it is written under mu,
	// always before the handoff that lets another process run, and read
	// atomically by everyone else.
	nowNanos int64
	running  int   // processes currently executing: 0 or 1 once Run starts
	total    int   // registered processes alive
	cur      *proc // the process holding the execution slot
	// nextp is the process the last dispatch chose, for Run's loop to
	// resume once the current process has parked or exited; nil when
	// the dispatch kept the slot with its caller or found nothing to run.
	nextp *proc
	// runq holds readied processes in wake order; wakeq holds the
	// remainder of the current co-deadline timer batch in seq order.
	// Dispatch order is runq, then wakeq, then a fresh batch from the
	// timer heap.
	runq    Ring[*proc]
	wakeq   Ring[*proc]
	timers  timerHeap
	seq     uint64 // tie-break for identical deadlines; preserves FIFO order
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
	// targets the process shell, so timer and waiter shells are
	// reusable the moment their wake is queued. This keeps the park/wake
	// cycle in Sleep and the primitives allocation-free at steady state
	// (invariant 10).
	freeWaiters []*waiter
	freeTimers  []*timer
	freeProcs   []*proc
}

// New returns a Clock positioned at virtual time zero.
func New() *Clock {
	return &Clock{
		reasonLabels: []string{"sleep", "queue", "event"},
		blockedN:     make([]int, numBuiltinReasons),
	}
}

// RegisterReason interns a block-reason label for the deadlock census
// and returns its fixed index. Labels are deduplicated, so primitives
// sharing a name share a census row.
func (c *Clock) RegisterReason(label string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
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
// the simulation. It reads lock-free: the dispatcher publishes the
// instant atomically before any handoff, and only the dispatcher — which
// runs while every other process is parked — ever writes it.
//
//gflink:hotpath
func (c *Clock) Now() time.Duration {
	return time.Duration(atomic.LoadInt64(&c.nowNanos))
}

// setNowLocked advances the clock, publishing the new instant for
// lock-free Now readers. Callers must hold c.mu and must not have
// handed the slot to any process for the new instant yet.
//
//gflink:hotpath
func (c *Clock) setNowLocked(d time.Duration) {
	c.now = d
	atomic.StoreInt64(&c.nowNanos, int64(d))
}

// Go spawns fn as a new registered process. It may be called from any
// goroutine, including non-process goroutines, before or during Run.
// The new process does not run immediately: it joins the ready queue
// and is dispatched when the current process blocks or exits, so spawn
// order — not host scheduling — decides execution order.
func (c *Clock) Go(name string, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.takeProcLocked(name)
	p.next = coroutine(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				c.mu.Lock()
				if !c.hasPanic {
					c.hasPanic = true
					c.panicked = fmt.Errorf("process %q panicked: %v", p.name, r)
				}
				c.mu.Unlock()
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
//
// Processes spawned before Run (e.g., stream executors created during
// deployment construction) may block on primitives; the clock neither
// advances nor declares deadlock until Run starts.
func (c *Clock) Run(root func()) time.Duration {
	c.Go("root", root)
	c.mu.Lock()
	c.started = true
	// Kick the dispatcher: processes spawned before Run (including root)
	// are parked in the ready queue and run from here on, one at a time.
	c.dispatchLocked(nil)
	// No process left to resume means every process exited, or the last
	// dispatch found a deadlock (possibly after a process panicked).
	for c.nextp != nil {
		next := c.nextp.next
		c.nextp = nil
		c.mu.Unlock()
		next()
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	if c.hasPanic {
		panic(c.panicked)
	}
	return c.now
}

// exit unregisters the calling process, recycles its shell and chooses
// the next process to run. Nothing references the shell once its
// coroutine returns, so it is immediately reusable by a future Go.
func (c *Clock) exit(p *proc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running--
	c.total--
	c.putProcLocked(p)
	c.dispatchLocked(nil)
}

// Sleep blocks the calling process for d of virtual time. A negative
// duration counts as zero. A zero sleep does not advance time, but it
// still round-trips through the timer heap, so wake-ups co-scheduled at
// the same instant occur in FIFO order.
//
// When the sleeper's own timer heads the next dispatch batch — common
// when one worker races ahead of every other process — block reports a
// self-wake and Sleep returns without parking at all: one locked
// section, no coroutine switch.
//
//gflink:hotpath
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	p := c.cur
	heap.Push(&c.timers, c.takeTimerLocked(p, c.now+d))
	if c.block(reasonSleep, p) {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	p.park()
}

// takeProcLocked returns a recycled (or new) process shell. Callers
// must hold c.mu.
func (c *Clock) takeProcLocked(name string) *proc {
	if n := len(c.freeProcs); n > 0 {
		p := c.freeProcs[n-1]
		c.freeProcs[n-1] = nil
		c.freeProcs = c.freeProcs[:n-1]
		p.name = name
		return p
	}
	return &proc{name: name}
}

// putProcLocked recycles an exited process's shell. Callers must hold
// c.mu.
func (c *Clock) putProcLocked(p *proc) {
	p.next, p.yield = nil, nil
	p.name = ""
	c.freeProcs = append(c.freeProcs, p)
}

// takeTimerLocked returns a recycled (or new) timer armed for deadline
// on behalf of p, with the global wake sequence already assigned.
// Callers must hold c.mu.
//
//gflink:hotpath
func (c *Clock) takeTimerLocked(p *proc, deadline time.Duration) *timer {
	c.seq++
	if n := len(c.freeTimers); n > 0 {
		t := c.freeTimers[n-1]
		c.freeTimers[n-1] = nil
		c.freeTimers = c.freeTimers[:n-1]
		t.deadline = deadline
		t.seq = c.seq
		t.p = p
		return t
	}
	//gflink:allow-alloc cold start: the free list amortizes this away at steady state
	return &timer{deadline: deadline, seq: c.seq, p: p}
}

// putTimerLocked recycles a fired timer. The dispatcher calls it the
// moment a timer is drained from the heap — before the handoff —
// because the wake targets the process shell, not the timer.
// Callers must hold c.mu.
//
//gflink:hotpath
func (c *Clock) putTimerLocked(t *timer) {
	t.p = nil
	//gflink:allow-alloc amortized growth of the timer free list
	c.freeTimers = append(c.freeTimers, t)
}

// takeWaiterLocked returns a recycled (or new) waiter parked for p with
// n units requested. Callers must hold c.mu.
//
//gflink:hotpath
func (c *Clock) takeWaiterLocked(p *proc, n int64) *waiter {
	if l := len(c.freeWaiters); l > 0 {
		w := c.freeWaiters[l-1]
		c.freeWaiters[l-1] = nil
		c.freeWaiters = c.freeWaiters[:l-1]
		w.p = p
		w.n = n
		return w
	}
	//gflink:allow-alloc cold start: the free list amortizes this away at steady state
	return &waiter{p: p, n: n}
}

// putWaiterLocked recycles a waiter whose wake has been queued: the
// waker recycles it, since the wake targets the process shell. Callers
// must hold c.mu.
//
//gflink:hotpath
func (c *Clock) putWaiterLocked(w *waiter) {
	w.p = nil
	w.n = 0
	//gflink:allow-alloc amortized growth of the waiter free list
	c.freeWaiters = append(c.freeWaiters, w)
}

// block marks the calling process blocked for the given census reason
// and hands the execution slot to the next ready process (advancing the
// clock if none is ready). self is the calling process when the caller
// can be woken by a timer it just armed; block returns true when the
// dispatcher re-selected self, in which case the caller keeps the slot
// and must NOT park. Callers must hold c.mu and, unless block reports a
// self-wake, must park (p.park) after releasing it.
//
//gflink:hotpath
func (c *Clock) block(idx int, self *proc) bool {
	c.running--
	c.blockedN[idx]++
	return c.dispatchLocked(self)
}

// ready marks one process blocked for the given census reason as ready
// to run again. It joins the ready queue but does not execute until
// dispatched — the waker keeps the execution slot until it blocks or
// exits, and queued wake order is what makes contended admissions
// deterministic. Callers must hold c.mu.
//
//gflink:hotpath
func (c *Clock) ready(idx int, p *proc) {
	c.blockedN[idx]--
	c.runq.Push(p)
}

// dispatchLocked hands the execution slot to the next process in wake
// order: a readied process first, then the rest of the current
// co-deadline batch, then — with both queues empty — a fresh batch
// drained from the timer heap. Draining every timer that shares the
// earliest deadline in one locked sweep (seq order, which is FIFO
// order) is what "batched dispatch" means; it is observationally
// identical to firing one timer per dispatch because a timer armed
// *after* the batch formed necessarily carries a larger seq and the
// same instant, so it would have fired after the whole batch anyway.
//
// dispatchLocked returns true when the selected process is self: the
// caller keeps the execution slot and does not park. Callers must hold
// c.mu.
//
//gflink:hotpath
func (c *Clock) dispatchLocked(self *proc) bool {
	if !c.started || c.running > 0 || c.total == 0 {
		return false
	}
	if p, ok := c.runq.Pop(); ok {
		return c.handoffLocked(p, self)
	}
	if p, ok := c.wakeq.Pop(); ok {
		return c.handoffLocked(p, self)
	}
	if len(c.timers) == 0 {
		//gflink:allow-alloc deadlock diagnostics: cold path that ends the simulation
		c.deadlockLocked()
		return false
	}
	// Form the batch: pop every timer sharing the earliest deadline, in
	// seq order. The first wakes now; the rest wait in wakeq behind any
	// processes the woken ones ready (virtual time holds still for the
	// whole batch).
	t := heap.Pop(&c.timers).(*timer)
	c.setNowLocked(t.deadline)
	c.blockedN[reasonSleep]--
	p := t.p
	c.putTimerLocked(t)
	for len(c.timers) > 0 && c.timers[0].deadline == c.now {
		t2 := heap.Pop(&c.timers).(*timer)
		c.blockedN[reasonSleep]--
		c.wakeq.Push(t2.p)
		c.putTimerLocked(t2)
	}
	return c.handoffLocked(p, self)
}

// handoffLocked gives p the execution slot. A handoff to self is the
// fast path: the caller just keeps running. Otherwise p becomes the
// process Run's loop resumes once the caller parks or exits. Callers
// must hold c.mu.
//
//gflink:hotpath
func (c *Clock) handoffLocked(p, self *proc) bool {
	c.running++
	c.cur = p
	if p == self {
		return true
	}
	c.nextp = p
	return false
}

// deadlockLocked ends the simulation with a deadlock diagnostic. Either
// a process died by panic (simulation already compromised) or this is a
// genuine deadlock. The error surfaces from Run on the caller's
// goroutine: panicking here would unwind with c.mu held and wedge the
// recover path. No process is chosen, so Run's loop ends; the parked
// coroutines are never resumed and are leaked.
func (c *Clock) deadlockLocked() {
	if !c.hasPanic {
		c.hasPanic = true
		c.panicked = fmt.Errorf("vclock: deadlock: all processes blocked with no pending timer\n%s", c.diagnosticLocked())
	}
}

// diagnosticLocked renders the blocked-process census for deadlock
// panics: the nonzero reasons, sorted by label.
func (c *Clock) diagnosticLocked() string {
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

// timer is one pending Sleep deadline; the wake targets the parked
// process's shell, so the dispatcher recycles the timer the moment it
// leaves the heap.
type timer struct {
	deadline time.Duration
	seq      uint64
	p        *proc
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
