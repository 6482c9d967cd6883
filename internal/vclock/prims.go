package vclock

// waiter is a parked process or task waiting on a primitive: the shell
// to wake plus the semaphore units it requested. Wakes target the
// process shell, so the waker recycles the waiter shell the moment it
// leaves the wait queue.
type waiter struct {
	p *Task
	n int64 // semaphore units requested
}

// Queue is an unbounded FIFO channel between processes. Get blocks on an
// empty queue; Put never blocks. A closed queue reports ok=false from Get
// once drained. The zero value is not usable; use NewQueue.
type Queue[T any] struct {
	c       *Clock
	items   Ring[T]
	waiters Ring[*waiter]
	closed  bool
}

// NewQueue returns an empty open queue bound to clock c.
func NewQueue[T any](c *Clock) *Queue[T] {
	return &Queue[T]{c: c}
}

// Put appends v and wakes one waiting Get, if any.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("vclock: Put on closed Queue")
	}
	q.items.Push(v)
	if w, ok := q.waiters.Pop(); ok {
		q.c.ready(reasonQueue, w.p)
		q.c.putWaiter(w)
	}
}

// Close marks the queue closed; blocked and future Gets observe ok=false
// once the buffered items drain.
func (q *Queue[T]) Close() {
	q.closed = true
	for {
		w, ok := q.waiters.Pop()
		if !ok {
			break
		}
		q.c.ready(reasonQueue, w.p)
		q.c.putWaiter(w)
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// open and empty: GetTask, re-checked each time the process wakes. ok
// is false if the queue is closed and drained.
func (q *Queue[T]) Get() (T, bool) {
	t := q.c.Process()
	for {
		v, ok, wait := q.GetTask(t)
		if !wait {
			return v, ok
		}
		t.Park()
	}
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) { return q.items.Pop() }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Semaphore is a counting semaphore used to model contended hardware
// resources (CPU cores, DMA engines, device compute). Acquire order is
// FIFO, which keeps simulations deterministic.
type Semaphore struct {
	c         *Clock
	name      string
	reasonIdx int // census index of "sem:"+name, interned at construction
	free      int64
	cap       int64
	waiters   Ring[*waiter]
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(c *Clock, name string, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic("vclock: semaphore capacity must be positive")
	}
	return &Semaphore{c: c, name: name, reasonIdx: c.RegisterReason("sem:" + name), free: capacity, cap: capacity}
}

// Acquire blocks until n units are available and takes them:
// AcquireTask, parking the process while it waits. n greater than the
// capacity panics (it could never succeed).
func (s *Semaphore) Acquire(n int64) {
	if t := s.c.Process(); !s.AcquireTask(t, n) {
		t.Park()
	}
}

// Release returns n units and wakes as many queued acquirers as now fit,
// in FIFO order.
func (s *Semaphore) Release(n int64) {
	s.free += n
	if s.free > s.cap {
		panic("vclock: semaphore over-release: " + s.name)
	}
	for {
		w, ok := s.waiters.Front()
		if !ok || w.n > s.free {
			return
		}
		s.waiters.Pop()
		s.free -= w.n
		s.c.ready(s.reasonIdx, w.p)
		s.c.putWaiter(w)
	}
}

// Free reports the available units (intended for scheduler heuristics
// and tests).
func (s *Semaphore) Free() int64 { return s.free }

// Event is a one-shot broadcast: Wait blocks until Set is called; after
// Set, Wait returns immediately. Reset rearms a set event for reuse.
type Event struct {
	c       *Clock
	set     bool
	waiters Ring[*waiter]
}

// NewEvent returns an unset event.
func NewEvent(c *Clock) *Event { return &Event{c: c} }

// Set fires the event, waking all current and future waiters. Setting an
// already-set event is a no-op.
func (e *Event) Set() {
	if e.set {
		return
	}
	e.set = true
	for {
		w, ok := e.waiters.Pop()
		if !ok {
			break
		}
		e.c.ready(reasonEvent, w.p)
		e.c.putWaiter(w)
	}
}

// Wait blocks until the event is set: WaitTask, parking the process
// while it waits.
func (e *Event) Wait() {
	if t := e.c.Process(); !e.WaitTask(t) {
		t.Park()
	}
}

// IsSet reports whether the event fired.
func (e *Event) IsSet() bool { return e.set }

// Reset returns a fired event to the unset state so the same Event can
// be reused (e.g., the completion event of a pooled GWork). Resetting
// an event that still has blocked waiters panics: their wake-up would
// otherwise be lost. Resetting an unset event is a no-op.
func (e *Event) Reset() {
	if e.waiters.Len() > 0 {
		panic("vclock: Event.Reset with blocked waiters")
	}
	e.set = false
}

// Group tracks a set of child processes and lets a parent wait for all
// of them, mirroring sync.WaitGroup for virtual-time processes.
type Group struct {
	c     *Clock
	n     int
	done  *Event
	ended bool
}

// NewGroup returns an empty group.
func NewGroup(c *Clock) *Group {
	return &Group{c: c, done: NewEvent(c)}
}

// Go spawns fn as a process tracked by the group.
func (g *Group) Go(name string, fn func()) {
	if g.ended {
		panic("vclock: Group.Go after Wait returned")
	}
	g.n++
	g.c.Go(name, func() {
		defer func() {
			g.n--
			if g.n == 0 {
				g.done.Set()
			}
		}()
		fn()
	})
}

// Wait blocks until every spawned process has finished. A group with no
// processes returns immediately.
func (g *Group) Wait() {
	if g.n > 0 {
		g.done.Wait()
	}
	g.ended = true
}
