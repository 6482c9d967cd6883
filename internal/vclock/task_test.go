package vclock

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runPanic runs a clock whose root process calls setup and returns,
// and reports the message Run panics with.
func runPanic(t *testing.T, setup func(c *Clock)) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned, want a panic")
		}
		msg = fmt.Sprint(r)
	}()
	c := New()
	c.Run(func() { setup(c) })
	return ""
}

// TestTaskPanicSurfacesFromRun pins the message a panicking step
// leaves: Run re-panics on its caller's goroutine, naming the task.
func TestTaskPanicSurfacesFromRun(t *testing.T) {
	msg := runPanic(t, func(c *Clock) {
		var task *Task
		slept := false
		task = c.Spawn("stepper", func() {
			if !slept {
				slept = true
				if !task.Sleep(time.Second) {
					return
				}
			}
			panic("boom")
		})
	})
	if want := `process "stepper" panicked: boom`; !strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
	}
}

// TestTaskDeadlockCensus checks that tasks blocked forever are counted
// in the deadlock diagnostic under the reason they wait for, like
// processes.
func TestTaskDeadlockCensus(t *testing.T) {
	msg := runPanic(t, func(c *Clock) {
		q := NewQueue[int](c)
		sem := NewSemaphore(c, "gate", 1)
		sem.Acquire(1) // never released
		var getter, acquirer *Task
		getter = c.Spawn("getter", func() {
			if _, _, wait := q.GetTask(getter); !wait {
				t.Error("GetTask on an empty open queue did not wait")
			}
		})
		acquirer = c.Spawn("acquirer", func() {
			if sem.AcquireTask(acquirer, 1) {
				t.Error("AcquireTask on a held semaphore granted")
			}
		})
	})
	if !strings.Contains(msg, "vclock: deadlock") {
		t.Fatalf("Run panicked with %q, want a deadlock", msg)
	}
	want := []string{"virtual time: 0s", "processes alive: 2", "queue 1", "sem:gate 1"}
	if got := parseCensus(msg); !reflect.DeepEqual(got, want) {
		t.Fatalf("census = %q, want %q", got, want)
	}
}

// TestStepCallingStackfulPrimitivePanics checks that a step reaching a
// blocking stackful primitive outside Call fails naming the task,
// before it touches any clock state, instead of parking a coroutine it
// does not have — also once an earlier Call has created the stack Call
// lends, which is lent only for the Call.
func TestStepCallingStackfulPrimitivePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(c *Clock) func()
	}{
		{"Clock.Sleep", func(c *Clock) func() {
			return func() { c.Sleep(time.Second) }
		}},
		{"Semaphore.Acquire", func(c *Clock) func() {
			sem := NewSemaphore(c, "gate", 1)
			sem.Acquire(1)
			return func() { sem.Acquire(1) }
		}},
		{"Queue.Get", func(c *Clock) func() {
			q := NewQueue[int](c)
			return func() { q.Get() }
		}},
		{"Event.Wait", func(c *Clock) func() {
			ev := NewEvent(c)
			return func() { ev.Wait() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := runPanic(t, func(c *Clock) { c.Spawn("stepper", tc.block(c)) })
			if want := `process "stepper" panicked: vclock: task "stepper" called a stackful blocking primitive`; !strings.Contains(msg, want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
			}
		})
		t.Run(tc.name+"/after-Call", func(t *testing.T) {
			msg := runPanic(t, func(c *Clock) {
				var task *Task
				bad := tc.block(c)
				task = c.Spawn("stepper", func() {
					if !task.Call(func() { c.Sleep(0) }) {
						t.Error("Call of a self-waking sleep parked")
					}
					bad()
				})
			})
			if want := `process "stepper" panicked: vclock: task "stepper" called a stackful blocking primitive`; !strings.Contains(msg, want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
			}
		})
	}
}

// TestTaskCall runs stackful primitives inside Call. A Call whose
// function never parks finishes in place, and costs no park; one whose
// function parks returns false, and the task's step runs again only
// once the function has finished, at the virtual time it finished.
// Both Calls share one borrowed stack.
func TestTaskCall(t *testing.T) {
	c := New()
	sem := NewSemaphore(c, "gate", 1)
	var task *Task
	var log []string
	phase := 0
	step := func() {
		for {
			switch phase {
			case 0:
				phase = 1
				inPlace := task.Call(func() {
					sem.Acquire(1)
					c.Sleep(0)
				})
				log = append(log, fmt.Sprintf("in-place=%v@%v", inPlace, c.Now()))
				if !inPlace {
					return
				}
			case 1:
				phase = 2
				sem.Release(1)
				if !task.Call(func() {
					c.Sleep(time.Millisecond)
					sem.Acquire(1)
					log = append(log, fmt.Sprintf("granted@%v", c.Now()))
				}) {
					log = append(log, fmt.Sprintf("parked@%v", c.Now()))
					return
				}
			case 2:
				log = append(log, fmt.Sprintf("stepped@%v", c.Now()))
				sem.Release(1)
				task.Exit()
				return
			}
		}
	}
	c.Run(func() {
		// The task runs once the root sleeps, so its zero sleep heads
		// the timer heap and the first Call never parks. The root holds
		// the gate from 1ms to 3ms, so the second Call parks twice: on
		// its sleep, then on the semaphore.
		task = c.Spawn("caller", step)
		c.Sleep(time.Millisecond)
		sem.Acquire(1)
		c.Sleep(2 * time.Millisecond)
		sem.Release(1)
	})
	// The dispatch that parks the second Call has already moved the
	// clock to the root's 1ms timer when Call returns.
	want := []string{"in-place=true@0s", "parked@1ms", "granted@3ms", "stepped@3ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
	// The root parks on its two sleeps and the second Call twice.
	if got := c.Parks(); got != 4 {
		t.Fatalf("Parks = %d, want 4", got)
	}
}

// TestTaskCallPanicNamesTask checks that a panic inside a Call's
// function surfaces from Run naming the task, whether the function
// panics at once or after it parked.
func TestTaskCallPanicNamesTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(c *Clock) func()
	}{
		{"in place", func(c *Clock) func() {
			return func() { panic("boom") }
		}},
		{"after a park", func(c *Clock) func() {
			return func() {
				c.Sleep(time.Second)
				panic("boom")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := runPanic(t, func(c *Clock) {
				var task *Task
				body := tc.fn(c)
				task = c.Spawn("caller", func() {
					if task.Call(body) {
						task.Exit()
					}
				})
				c.Sleep(2 * time.Second)
			})
			if want := `process "caller" panicked: boom`; !strings.Contains(msg, want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
			}
		})
	}
}

// TestTaskCallDeadlockCensus checks that a task parked inside Call is
// counted in the deadlock diagnostic under the reason its function
// waits for, like a process.
func TestTaskCallDeadlockCensus(t *testing.T) {
	msg := runPanic(t, func(c *Clock) {
		sem := NewSemaphore(c, "gate", 1)
		ev := NewEvent(c)
		sem.Acquire(1) // never released
		var acquirer, waiter *Task
		acquirer = c.Spawn("acquirer", func() {
			if acquirer.Call(func() { sem.Acquire(1) }) {
				t.Error("Call of an acquire on a held semaphore finished in place")
			}
		})
		waiter = c.Spawn("waiter", func() {
			if waiter.Call(func() { ev.Wait() }) {
				t.Error("Call of a wait on an unset event finished in place")
			}
		})
	})
	if !strings.Contains(msg, "vclock: deadlock") {
		t.Fatalf("Run panicked with %q, want a deadlock", msg)
	}
	want := []string{"virtual time: 0s", "processes alive: 2", "event 1", "sem:gate 1"}
	if got := parseCensus(msg); !reflect.DeepEqual(got, want) {
		t.Fatalf("census = %q, want %q", got, want)
	}
}

// TestEventWaitTask checks WaitTask: true on a set event, and on an
// unset one a wait that the setter's Set ends, after which the step
// runs at the setter's time.
func TestEventWaitTask(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	var task *Task
	var woke time.Duration
	waited := false
	task = c.Spawn("waiter", func() {
		if !waited {
			waited = true
			if ev.WaitTask(task) {
				t.Error("WaitTask on an unset event did not wait")
			}
			return
		}
		woke = c.Now()
		if !ev.WaitTask(task) {
			t.Error("WaitTask on a set event waited")
		}
		task.Exit()
	})
	c.Run(func() {
		c.Sleep(5 * time.Millisecond)
		ev.Set()
	})
	if woke != 5*time.Millisecond {
		t.Fatalf("waiter stepped again at %v, want 5ms", woke)
	}
}

// TestStepReturningWhileRunningPanics checks that a step which returns
// without parking or exiting fails loudly: otherwise the dispatcher
// would have nothing to resume and Run would end early.
func TestStepReturningWhileRunningPanics(t *testing.T) {
	msg := runPanic(t, func(c *Clock) { c.Spawn("stepper", func() {}) })
	if want := `process "stepper" panicked: vclock: step returned without waiting or exiting`; !strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
	}
}

// TestTaskParksNothing checks that a task's waits cost no coroutine
// park while a process's do: a task and a process each sleep twice
// behind one another's timer, and only the process's sleeps count.
func TestTaskParksNothing(t *testing.T) {
	c := New()
	var task *Task
	sleeps := 0
	task = c.Spawn("sleeper", func() {
		for sleeps < 2 {
			sleeps++
			if !task.Sleep(time.Millisecond) {
				return
			}
		}
		task.Exit()
	})
	end := c.Run(func() {
		c.Sleep(time.Millisecond)
		c.Sleep(time.Millisecond)
	})
	if end != 2*time.Millisecond || sleeps != 2 {
		t.Fatalf("run ended at %v after %d task sleeps, want 2ms and 2", end, sleeps)
	}
	if got := c.Parks(); got != 2 {
		t.Fatalf("Parks = %d, want 2 (the root's sleeps only)", got)
	}
}
