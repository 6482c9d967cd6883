package vclock

import "testing"

// Allocation budgets (DESIGN.md invariant 10). Once the free lists, the
// timer heap and the rings have grown to the traffic they carry, every
// blocking operation below costs no heap allocation, in its process
// form and in its task form.

// allocsInRun runs setup, then f until warm, then f measured, then
// done, all inside the root process of c, and returns f's steady-state
// heap allocations per call. done lets the peers of f exit.
func allocsInRun(c *Clock, setup, f, done func()) (allocs float64) {
	c.Run(func() {
		setup()
		for i := 0; i < 64; i++ {
			f()
		}
		allocs = testing.AllocsPerRun(1000, f)
		done()
	})
	return allocs
}

func nothing() {}

// TestSleepAllocatesNothing covers Task.Sleep, through Clock.Sleep in
// the root process and from a task's step: each call arms a timer
// behind the other sleeper's and parks, so every sleep pushes and pops
// the timer heap. The self-wake case sleeps with nothing else to run.
func TestSleepAllocatesNothing(t *testing.T) {
	t.Run("process-and-task", func(t *testing.T) {
		c := New()
		stop := false
		var peer *Task
		peer = c.Spawn("sleeper", func() {
			for !stop {
				if !peer.Sleep(1) {
					return
				}
			}
			peer.Exit()
		})
		allocs := allocsInRun(c, nothing, func() { c.Sleep(1) }, func() { stop = true })
		if allocs != 0 {
			t.Fatalf("%.2f heap allocations per sleep pair, want 0", allocs)
		}
	})
	t.Run("self-wake", func(t *testing.T) {
		c := New()
		if allocs := allocsInRun(c, nothing, func() { c.Sleep(0) }, nothing); allocs != 0 {
			t.Fatalf("%.2f heap allocations per self-waking sleep, want 0", allocs)
		}
	})
}

// TestRingAllocatesNothing pins a warm Ring's Push, Front and Pop.
func TestRingAllocatesNothing(t *testing.T) {
	var r Ring[*Task]
	p := &Task{}
	cycle := func() {
		r.Push(p)
		r.Push(p)
		r.Front()
		r.Pop()
		r.Pop()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("%.2f heap allocations per push/pop cycle, want 0", allocs)
	}
}

// TestTaskFormsAllocateNothing bounces control between the root process
// and a task through each waiting primitive: every call below parks its
// caller, so each cycle takes, queues and recycles waiters on both
// sides and wakes each side from the other's Release, Put or Set.
func TestTaskFormsAllocateNothing(t *testing.T) {
	t.Run("semaphore", func(t *testing.T) {
		c := New()
		sem := NewSemaphore(c, "slot", 1)
		stop, granted := false, false
		var peer *Task
		allocs := allocsInRun(c, func() {
			sem.Acquire(1) // the root starts out holding the unit
			peer = c.Spawn("peer", func() {
				for !stop {
					if !granted && !sem.AcquireTask(peer, 1) {
						granted = true // charged when the step runs next
						return
					}
					granted = false
					sem.Release(1)
				}
				peer.Exit()
			})
			c.Sleep(0) // the peer runs until it waits for the unit
		}, func() {
			sem.Release(1)
			sem.Acquire(1)
		}, func() {
			stop = true
			sem.Release(1)
		})
		if allocs != 0 {
			t.Fatalf("%.2f heap allocations per semaphore handoff pair, want 0", allocs)
		}
	})
	t.Run("queue", func(t *testing.T) {
		c := New()
		ping, pong := NewQueue[int](c), NewQueue[int](c)
		var peer *Task
		peer = c.Spawn("peer", func() {
			for {
				v, ok, wait := ping.GetTask(peer)
				if wait {
					return
				}
				if !ok {
					peer.Exit()
					return
				}
				pong.Put(v)
			}
		})
		allocs := allocsInRun(c, nothing, func() {
			ping.Put(1)
			pong.Get()
		}, ping.Close)
		if allocs != 0 {
			t.Fatalf("%.2f heap allocations per queue round trip, want 0", allocs)
		}
	})
	t.Run("event", func(t *testing.T) {
		c := New()
		ping, pong := NewEvent(c), NewEvent(c)
		stop := false
		var peer *Task
		peer = c.Spawn("peer", func() {
			for {
				if !ping.WaitTask(peer) {
					return
				}
				if stop {
					peer.Exit()
					return
				}
				ping.Reset()
				pong.Set()
			}
		})
		allocs := allocsInRun(c, nothing, func() {
			ping.Set()
			pong.Wait()
			pong.Reset()
		}, func() {
			stop = true
			ping.Set()
		})
		if allocs != 0 {
			t.Fatalf("%.2f heap allocations per event round trip, want 0", allocs)
		}
	})
}
