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
// blocking stackful primitive fails naming the task, before it touches
// any clock state, instead of parking a coroutine it does not have.
func TestStepCallingStackfulPrimitivePanics(t *testing.T) {
	for name, block := range map[string]func(c *Clock) func(){ //gflink:unordered — each case runs on its own
		"Clock.Sleep": func(c *Clock) func() {
			return func() { c.Sleep(time.Second) }
		},
		"Semaphore.Acquire": func(c *Clock) func() {
			sem := NewSemaphore(c, "gate", 1)
			sem.Acquire(1)
			return func() { sem.Acquire(1) }
		},
		"Queue.Get": func(c *Clock) func() {
			q := NewQueue[int](c)
			return func() { q.Get() }
		},
		"Event.Wait": func(c *Clock) func() {
			ev := NewEvent(c)
			return func() { ev.Wait() }
		},
	} {
		t.Run(name, func(t *testing.T) {
			msg := runPanic(t, func(c *Clock) { c.Spawn("stepper", block(c)) })
			if want := `process "stepper" panicked: vclock: task "stepper" called a stackful blocking primitive`; !strings.Contains(msg, want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", msg, want)
			}
		})
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
