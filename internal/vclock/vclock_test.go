package vclock

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	c := New()
	var at time.Duration
	end := c.Run(func() {
		c.Sleep(3 * time.Second)
		at = c.Now()
	})
	if at != 3*time.Second {
		t.Errorf("Now after Sleep(3s) = %v, want 3s", at)
	}
	if end != 3*time.Second {
		t.Errorf("Run returned %v, want 3s", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	c := New()
	c.Run(func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		if c.Now() != 0 {
			t.Errorf("time advanced to %v after zero/negative sleeps", c.Now())
		}
	})
}

func TestParallelSleepsOverlap(t *testing.T) {
	c := New()
	end := c.Run(func() {
		g := NewGroup(c)
		for i := 0; i < 10; i++ {
			g.Go("sleeper", func() { c.Sleep(5 * time.Second) })
		}
		g.Wait()
	})
	if end != 5*time.Second {
		t.Errorf("10 parallel 5s sleeps took %v, want 5s", end)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	c := New()
	end := c.Run(func() {
		for i := 0; i < 4; i++ {
			c.Sleep(250 * time.Millisecond)
		}
	})
	if end != time.Second {
		t.Errorf("4 sequential 250ms sleeps took %v, want 1s", end)
	}
}

func TestTimeMonotonicAcrossProcesses(t *testing.T) {
	c := New()
	var seen []time.Duration
	c.Run(func() {
		g := NewGroup(c)
		for i := 0; i < 8; i++ {
			d := time.Duration(i) * 100 * time.Millisecond
			g.Go("p", func() {
				c.Sleep(d)
				seen = append(seen, c.Now())
			})
		}
		g.Wait()
	})
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Errorf("wakeup times not monotone: %v", seen)
	}
}

func TestQueueFIFO(t *testing.T) {
	c := New()
	var got []int
	c.Run(func() {
		q := NewQueue[int](c)
		for i := 0; i < 100; i++ {
			q.Put(i)
		}
		q.Close()
		for {
			v, ok := q.Get()
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("queue order violated at %d: got %d", i, v)
		}
	}
	if len(got) != 100 {
		t.Fatalf("drained %d items, want 100", len(got))
	}
}

func TestQueueBlocksConsumerUntilPut(t *testing.T) {
	c := New()
	var consumedAt time.Duration
	c.Run(func() {
		q := NewQueue[string](c)
		g := NewGroup(c)
		g.Go("consumer", func() {
			v, ok := q.Get()
			if !ok || v != "x" {
				t.Errorf("Get = %q,%v", v, ok)
			}
			consumedAt = c.Now()
		})
		g.Go("producer", func() {
			c.Sleep(2 * time.Second)
			q.Put("x")
		})
		g.Wait()
	})
	if consumedAt != 2*time.Second {
		t.Errorf("consumed at %v, want 2s", consumedAt)
	}
}

func TestQueueCloseWakesWaiters(t *testing.T) {
	c := New()
	oks := make([]bool, 3)
	c.Run(func() {
		q := NewQueue[int](c)
		g := NewGroup(c)
		for i := 0; i < 3; i++ {
			g.Go("waiter", func() { _, oks[i] = q.Get() })
		}
		g.Go("closer", func() {
			c.Sleep(time.Second)
			q.Close()
		})
		g.Wait()
	})
	for i, ok := range oks {
		if ok {
			t.Errorf("waiter %d got ok=true from closed empty queue", i)
		}
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	c := New()
	end := c.Run(func() {
		sem := NewSemaphore(c, "cpu", 2)
		g := NewGroup(c)
		for i := 0; i < 6; i++ {
			g.Go("task", func() {
				sem.Acquire(1)
				c.Sleep(time.Second)
				sem.Release(1)
			})
		}
		g.Wait()
	})
	// 6 one-second tasks on 2 slots => 3 seconds.
	if end != 3*time.Second {
		t.Errorf("makespan %v, want 3s", end)
	}
}

func TestSemaphoreFIFOOrder(t *testing.T) {
	c := New()
	var order []int
	c.Run(func() {
		sem := NewSemaphore(c, "r", 1)
		sem.Acquire(1)
		g := NewGroup(c)
		for i := 0; i < 5; i++ {
			i := i
			// Stagger arrivals so queue order is deterministic.
			g.Go("w", func() {
				c.Sleep(time.Duration(i+1) * time.Millisecond)
				sem.Acquire(1)
				order = append(order, i)
				sem.Release(1)
			})
		}
		c.Sleep(time.Second)
		sem.Release(1)
		g.Wait()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSemaphoreMultiUnitAcquire(t *testing.T) {
	c := New()
	end := c.Run(func() {
		sem := NewSemaphore(c, "mem", 4)
		g := NewGroup(c)
		// One big task (4 units) then two small ones (2 each): the big one
		// runs alone, the small ones run together afterwards.
		g.Go("big", func() {
			sem.Acquire(4)
			c.Sleep(time.Second)
			sem.Release(4)
		})
		g.Go("s1", func() {
			c.Sleep(time.Millisecond)
			sem.Acquire(2)
			c.Sleep(time.Second)
			sem.Release(2)
		})
		g.Go("s2", func() {
			c.Sleep(time.Millisecond)
			sem.Acquire(2)
			c.Sleep(time.Second)
			sem.Release(2)
		})
		g.Wait()
	})
	// Big runs [0,1s]; smalls arrive at 1ms, wait, then run [1s,2s]
	// concurrently.
	if end != 2*time.Second {
		t.Errorf("makespan %v, want 2s", end)
	}
}

func TestEventBroadcast(t *testing.T) {
	c := New()
	var wokeAt [4]time.Duration
	c.Run(func() {
		ev := NewEvent(c)
		g := NewGroup(c)
		for i := 0; i < 4; i++ {
			g.Go("w", func() {
				ev.Wait()
				wokeAt[i] = c.Now()
			})
		}
		g.Go("setter", func() {
			c.Sleep(7 * time.Second)
			ev.Set()
		})
		g.Wait()
		// Wait after Set returns immediately.
		ev.Wait()
	})
	for i, at := range wokeAt {
		if at != 7*time.Second {
			t.Errorf("waiter %d woke at %v, want 7s", i, at)
		}
	}
}

func TestGroupEmptyWait(t *testing.T) {
	c := New()
	c.Run(func() {
		g := NewGroup(c)
		g.Wait() // must not block
	})
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c := New()
	c.Run(func() {
		q := NewQueue[int](c)
		q.Get() // nobody will ever Put
	})
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from Run")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c := New()
	c.Run(func() { panic("boom") })
}

// TestProcessPanicSurfacesFromRun pins the message a panicking process
// leaves: Run re-panics on its caller's goroutine, naming the process.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from Run")
		}
		if want := `process "worker" panicked: boom`; !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("Run panicked with %v, want it to contain %q", r, want)
		}
	}()
	c := New()
	c.Run(func() {
		g := NewGroup(c)
		g.Go("worker", func() {
			c.Sleep(time.Second)
			panic("boom")
		})
		g.Wait()
	})
}

// TestRunLeavesNoGoroutines checks that every process's coroutine has
// finished by the time Run returns, for processes spawned both before
// and during the run, with a task alive beside them and a task that
// blocked inside Call and exited: Exit stops the stack Call lent.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := goroutines()
	c := New()
	q := NewQueue[int](c)
	sum := 0
	c.Go("consumer", func() {
		for {
			v, ok := q.Get()
			if !ok {
				return
			}
			sum += v
		}
	})
	var task *Task
	task = c.Spawn("task-consumer", func() {
		for {
			v, ok, wait := q.GetTask(task)
			if wait {
				return
			}
			if !ok {
				task.Exit()
				return
			}
			sum += v
		}
	})
	var caller *Task
	called := false
	caller = c.Spawn("task-caller", func() {
		if !called {
			called = true
			if !caller.Call(func() { c.Sleep(time.Millisecond) }) {
				return
			}
		}
		caller.Exit()
	})
	c.Run(func() {
		g := NewGroup(c)
		for i := 1; i <= 4; i++ {
			g.Go("producer", func() {
				c.Sleep(time.Duration(i) * time.Millisecond)
				q.Put(i)
			})
		}
		g.Wait()
		q.Close()
	})
	if sum != 10 {
		t.Fatalf("consumers summed %d, want 10", sum)
	}
	if after := goroutines(); after != before {
		t.Fatalf("%d goroutines after Run, %d before", after, before)
	}
}

// goroutines returns runtime.NumGoroutine once the count has settled.
// A goroutine an earlier test left exiting (its test runner, or a
// coroutine it stopped) may still be counted when a test starts; the
// goroutines polls, yielding the processor between reads, until the
// count has held for settleReads reads in a row, within at most
// maxPolls reads. A leaked goroutine never exits, so it stays in the
// settled count.
func goroutines() int {
	const settleReads, maxPolls = 200_000, 2_000_000
	n, steady := runtime.NumGoroutine(), 0
	for i := 0; i < maxPolls && steady < settleReads; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, steady = m, 0
		} else {
			steady++
		}
	}
	return n
}

// parkOne leaves one coroutine parked, as a deadlocked Run leaves its
// blocked processes, and returns the function that finishes it.
func parkOne() (finish func()) {
	c := New()
	q := NewQueue[int](c)
	func() {
		defer func() { _ = recover() }()
		c.Run(func() { q.Get() })
	}()
	w, _ := q.waiters.Front()
	p := w.p
	return func() {
		q.Close()
		p.next()
	}
}

// TestGoroutineCountSeesLeak proves that the settled count goroutines
// returns still catches a real leak: with one coroutine left parked,
// the count after is one above the count before, and it falls back
// once the coroutine finishes.
func TestGoroutineCountSeesLeak(t *testing.T) {
	before := goroutines()
	finish := parkOne()
	leaked := goroutines()
	finish()
	if leaked != before+1 {
		t.Fatalf("%d goroutines with one coroutine parked, %d before; the check would miss the leak", leaked, before)
	}
	if after := goroutines(); after != before {
		t.Fatalf("%d goroutines after the parked coroutine finished, %d before", after, before)
	}
}

// Property: for any set of task durations run on a k-slot semaphore, the
// makespan equals the deterministic list-scheduling makespan (tasks
// admitted in FIFO order).
func TestSemaphoreMakespanProperty(t *testing.T) {
	f := func(durs []uint16, width uint8) bool {
		k := int(width%4) + 1
		if len(durs) > 40 {
			durs = durs[:40]
		}
		c := New()
		end := c.Run(func() {
			sem := NewSemaphore(c, "k", int64(k))
			g := NewGroup(c)
			for i, d := range durs {
				d := time.Duration(d) * time.Millisecond
				// Stagger by i nanoseconds to make admission order
				// deterministic.
				i := i
				g.Go("t", func() {
					c.Sleep(time.Duration(i) * time.Nanosecond)
					sem.Acquire(1)
					c.Sleep(d)
					sem.Release(1)
				})
			}
			g.Wait()
		})
		// Reference: greedy earliest-available-slot schedule.
		slots := make([]time.Duration, k)
		for i, d := range durs {
			arrive := time.Duration(i) * time.Nanosecond
			// pick earliest-free slot
			best := 0
			for j := 1; j < k; j++ {
				if slots[j] < slots[best] {
					best = j
				}
			}
			start := slots[best]
			if arrive > start {
				start = arrive
			}
			slots[best] = start + time.Duration(d)*time.Millisecond
		}
		var want time.Duration
		for _, s := range slots {
			if s > want {
				want = s
			}
		}
		// Also account for tasks arriving after all slots drained.
		if n := len(durs); n > 0 {
			if last := time.Duration(n-1) * time.Nanosecond; last > want {
				want = last
			}
		}
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a queue delivers exactly the multiset of values put, in put
// order, across an arbitrary interleaving of producers.
func TestQueueDeliveryProperty(t *testing.T) {
	f := func(vals []int32) bool {
		c := New()
		var got []int32
		c.Run(func() {
			q := NewQueue[int32](c)
			g := NewGroup(c)
			g.Go("producer", func() {
				for _, v := range vals {
					q.Put(v)
					c.Sleep(time.Microsecond)
				}
				q.Close()
			})
			g.Go("consumer", func() {
				for {
					v, ok := q.Get()
					if !ok {
						return
					}
					got = append(got, v)
				}
			})
			g.Wait()
		})
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Determinism: the same program yields the same final virtual time on
// repeated runs.
func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		c := New()
		return c.Run(func() {
			sem := NewSemaphore(c, "gpu", 2)
			q := NewQueue[int](c)
			g := NewGroup(c)
			for w := 0; w < 3; w++ {
				g.Go("worker", func() {
					for {
						v, ok := q.Get()
						if !ok {
							return
						}
						sem.Acquire(1)
						c.Sleep(time.Duration(v) * time.Millisecond)
						sem.Release(1)
					}
				})
			}
			for i := 1; i <= 20; i++ {
				q.Put(i * 7 % 13)
				c.Sleep(time.Millisecond)
			}
			q.Close()
			g.Wait()
		})
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d gave %v, first gave %v", i, got, first)
		}
	}
}

// BenchmarkHandoff measures one handoff of the execution slot between
// processes. In the semaphore and queue cases two processes ping-pong,
// each parking as it wakes the other: the semaphore case passes a
// one-unit Semaphore back and forth, the queue case bounces a value over
// two Queues. The task case passes the semaphore between a process and
// a task, so only the process's half is a coroutine switch. In the
// timers case every handoff goes through the timer heap instead.
func BenchmarkHandoff(b *testing.B) {
	// pingPong runs root as the root process after spawning the peer
	// and letting it run until it parks, so every timed iteration is two
	// handoffs: root to peer and back.
	pingPong := func(b *testing.B, c *Clock, root, spawnPeer func()) {
		b.ReportAllocs()
		c.Run(func() {
			spawnPeer()
			c.Sleep(0)
			b.ResetTimer()
			root()
			b.StopTimer()
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/handoff")
	}
	// semRoot starts out holding sem's unit and hands it to the peer and
	// back b.N times.
	semRoot := func(b *testing.B, sem *Semaphore) func() {
		return func() {
			for i := 0; i < b.N; i++ {
				sem.Release(1) // hands the unit to the parked peer
				sem.Acquire(1) // parks until the peer releases it
			}
		}
	}
	b.Run("semaphore", func(b *testing.B) {
		c := New()
		sem := NewSemaphore(c, "slot", 1)
		pingPong(b, c, semRoot(b, sem), func() {
			sem.Acquire(1) // the root starts out holding the unit
			c.Go("peer", func() {
				for i := 0; i < b.N; i++ {
					sem.Acquire(1)
					sem.Release(1)
				}
			})
		})
	})
	b.Run("task", func(b *testing.B) {
		c := New()
		sem := NewSemaphore(c, "slot", 1)
		pingPong(b, c, semRoot(b, sem), func() {
			sem.Acquire(1) // the root starts out holding the unit
			var peer *Task
			n, granted := 0, false
			peer = c.Spawn("peer", func() {
				for ; n < b.N; n++ {
					if !granted && !sem.AcquireTask(peer, 1) {
						granted = true // charged when the step runs next
						return
					}
					granted = false
					sem.Release(1)
				}
				peer.Exit()
			})
		})
	})
	b.Run("queue", func(b *testing.B) {
		c := New()
		ping, pong := NewQueue[int](c), NewQueue[int](c)
		pingPong(b, c, func() {
			for i := 0; i < b.N; i++ {
				ping.Put(i)
				pong.Get()
			}
		}, func() {
			c.Go("peer", func() {
				for i := 0; i < b.N; i++ {
					v, _ := ping.Get()
					pong.Put(v)
				}
			})
		})
	})
	b.Run("timers", func(b *testing.B) {
		// Sleeper i wakes at i, i+procs, i+2*procs, ...: every Sleep arms
		// a timer behind the other sleepers' and parks, and every wake
		// pops the heap.
		const procs = 12
		b.ReportAllocs()
		c := New()
		c.Run(func() {
			g := NewGroup(c)
			for i := 0; i < procs; i++ {
				offset := time.Duration(i)
				g.Go("sleeper", func() {
					c.Sleep(offset)
					for n := 0; n < b.N; n++ {
						c.Sleep(procs)
					}
				})
			}
			b.ResetTimer()
			g.Wait()
			b.StopTimer()
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(procs*b.N), "ns/handoff")
	})
}
