package vclock

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// seedPrograms are the hand-written schedules the batching tests pin.
// Each is also committed, encoded, to FuzzSchedule's seed corpus under
// testdata/fuzz/FuzzSchedule/<name>.
var seedPrograms = map[string]*schedProgram{
	// Eight processes sleep to one shared deadline.
	"co-deadline-batch": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			repeatOp(8, schedOp{opSpawn, 1, 0}),
			{{opSleep, 0, 3}},
		},
	},
	// Three processes wait on an event; the first member of a
	// four-timer batch sets it.
	"batch-readies-waiters": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			append(append(repeatOp(3, schedOp{opSpawn, 1, 0}), schedOp{opSpawn, 2, 0}), repeatOp(3, schedOp{opSpawn, 3, 0})...),
			{{opWait, 0, 0}},
			{{opSleep, 0, 3}, {opSet, 0, 0}},
			{{opSleep, 0, 3}},
		},
	},
	// Three sleeping producers of a co-deadline batch each wake a
	// blocked consumer; a later closer ends the stream.
	"batch-queue-traffic": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			append(append([]schedOp{{opSpawn, 1, 0}}, repeatOp(3, schedOp{opSpawn, 2, 0})...), schedOp{opSpawn, 3, 0}),
			repeatOp(4, schedOp{opGet, 0, 0}),
			{{opSleep, 0, 3}, {opPut, 0, 0}, {opSleep, 0, 3}},
			{{opSleep, 0, 3}, {opSleep, 0, 3}, {opSleep, 0, 3}, {opClose, 0, 0}},
		},
	},
	// Four processes and four tasks, spawned alternately, sleep to one
	// shared deadline.
	"tasks-co-deadline-batch": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 2, 0}},
			{{opSleep, 0, 3}},
			{{opSleep, 0, 3}},
		},
		tasks: 1 << 2,
	},
	// Tasks and processes queue at a two-unit FIFO semaphore whose
	// root holds one unit: a two-unit process waits first, so the
	// one-unit tasks behind it queue too although a unit is free.
	"tasks-contended-semaphore": {
		semCaps: []int64{2}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opAcquire, 0, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 1, 0}, {opSpawn, 3, 0}, {opSleep, 0, 1}, {opRelease, 0, 0}},
			{{opAcquire, 0, 0}, {opSleep, 0, 2}, {opRelease, 0, 0}},
			{{opAcquire, 0, 1}, {opSleep, 0, 1}, {opRelease, 0, 1}},
			{{opAcquire, 0, 1}, {opRelease, 0, 1}},
		},
		tasks: 1<<1 | 1<<3,
	},
	// Task and process getters share a queue that gets two items and
	// is then closed under the remaining waiters.
	"tasks-queue-close": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 3, 0}},
			{{opGet, 0, 0}, {opGet, 0, 0}},
			{{opGet, 0, 0}, {opGet, 0, 0}},
			{{opPut, 0, 0}, {opSleep, 0, 1}, {opPut, 0, 0}, {opSleep, 0, 1}, {opClose, 0, 0}},
		},
		tasks: 1 << 1,
	},
	// A calling task acquires a free unit and sleeps zero inside one
	// Call, then does the same again after a release: its own timer
	// heads every dispatch, so both Calls finish in place.
	"calls-in-place": {
		semCaps: []int64{2}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSleep, 0, 3}},
			{{opAcquire, 0, 0}, {opSleep, 0, 0}, {opRelease, 0, 0}, {opAcquire, 0, 0}, {opSleep, 0, 0}, {opRelease, 0, 0}},
		},
		tasks: 1 << 1, calls: 1 << 1,
	},
	// Processes and calling tasks, spawned alternately, sleep to one
	// shared deadline and then queue at a one-unit FIFO semaphore, all
	// inside one Call per task: the Calls park on the timer, then on
	// the semaphore in the middle of the co-deadline batch.
	"calls-contended-semaphore": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 1, 0}, {opSpawn, 2, 0}},
			{{opSleep, 0, 3}, {opAcquire, 0, 0}, {opSleep, 0, 1}, {opRelease, 0, 0}},
			{{opSleep, 0, 3}, {opAcquire, 0, 0}, {opSleep, 0, 1}, {opRelease, 0, 0}},
		},
		tasks: 1 << 2, calls: 1 << 2,
	},
	// A task waits on an event through WaitTask and a calling task
	// inside Call; a process sets it. A task spawned after the set
	// finds it set and does not wait.
	"calls-event-wait": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSpawn, 2, 0}, {opSpawn, 3, 0}, {opSleep, 0, 3}, {opSpawn, 1, 0}},
			{{opWait, 0, 0}, {opSleep, 0, 1}},
			{{opSleep, 0, 2}, {opSet, 0, 0}},
			{{opWait, 0, 0}, {opSleep, 0, 1}},
		},
		tasks: 1<<1 | 1<<3, calls: 1 << 3,
	},
	// Two getters on a queue nobody fills, and a root that starves
	// itself on a one-unit semaphore.
	"deadlock-census": {
		semCaps: []int64{1}, queues: 1, events: 1,
		bodies: [][]schedOp{
			{{opSpawn, 1, 0}, {opSpawn, 1, 0}, {opAcquire, 0, 0}, {opAcquire, 0, 0}},
			{{opGet, 0, 0}},
		},
	},
}

func repeatOp(n int, o schedOp) []schedOp {
	ops := make([]schedOp, n)
	for i := range ops {
		ops[i] = o
	}
	return ops
}

// entriesAt returns the log entries stamped at virtual time at.
func entriesAt(log []logEntry, at time.Duration) []logEntry {
	var out []logEntry
	for _, e := range log {
		if e.at == at {
			out = append(out, e)
		}
	}
	return out
}

// TestCoDeadlineBatchFIFOBySeq pins the batching invariant: when many
// timers share the earliest deadline, the whole batch is dispatched in
// arm (seq) order.
func TestCoDeadlineBatchFIFOBySeq(t *testing.T) {
	out := checkSchedule(t, seedPrograms["co-deadline-batch"])
	woke := entriesAt(out.log, 3*time.Millisecond)
	if len(woke) != 8 {
		t.Fatalf("%d wakes at 3ms, want 8: %+v", len(woke), out.log)
	}
	for i, e := range woke {
		if e.pid != i+1 {
			t.Fatalf("wake order %+v, want arm order pids 1..8", woke)
		}
	}
}

// TestBatchInterleavedWithReadyWakes covers the subtle half of batching:
// a process woken from a co-deadline batch readies other processes (via
// an event) before the rest of the batch has run. Those readied
// processes run before the remaining batch members, because a
// dispatcher drains the run queue before the wake queue.
func TestBatchInterleavedWithReadyWakes(t *testing.T) {
	out := checkSchedule(t, seedPrograms["batch-readies-waiters"])
	// pids 1-3 wait, pid 4 sleeps then sets, pids 5-7 only sleep.
	var got []string
	for _, e := range entriesAt(out.log, 3*time.Millisecond) {
		got = append(got, fmt.Sprintf("%d.%d", e.pid, e.op))
	}
	want := "4.0,4.1,1.0,2.0,3.0,5.0,6.0,7.0"
	if strings.Join(got, ",") != want {
		t.Fatalf("order at 3ms = %v, want %s", got, want)
	}
}

// TestBatchMixedQueueTraffic mixes co-deadline timer batches with queue
// handoffs: each sleeping producer wakes the blocked consumer mid-batch,
// and the consumer takes the item before the next producer runs.
func TestBatchMixedQueueTraffic(t *testing.T) {
	out := checkSchedule(t, seedPrograms["batch-queue-traffic"])
	// pid 1 consumes, pids 2-4 produce, pid 5 closes.
	var got []string
	for _, e := range out.log {
		switch {
		case e.pid == 1:
			got = append(got, fmt.Sprintf("get%d@%v", e.val, e.at))
		case e.pid >= 2 && e.pid <= 4 && e.op == 1:
			got = append(got, fmt.Sprintf("put%d@%v", putValue(e.pid, 1), e.at))
		}
	}
	want := "put513@3ms,get513@3ms,put769@3ms,get769@3ms,put1025@3ms,get1025@3ms,get-1@9ms"
	if strings.Join(got, ",") != want {
		t.Fatalf("queue traffic = %v, want %s", got, want)
	}
}

// TestTasksShareWaitQueuesWithProcesses runs the seeds that mix tasks
// and processes through the oracle and pins the contended one: the
// semaphore grants in FIFO order across both kinds, so the one-unit
// tasks queued behind the two-unit process wait for it although a unit
// is free from the start.
func TestTasksShareWaitQueuesWithProcesses(t *testing.T) {
	checkSchedule(t, seedPrograms["tasks-co-deadline-batch"])
	checkSchedule(t, seedPrograms["tasks-queue-close"])
	out := checkSchedule(t, seedPrograms["tasks-contended-semaphore"])
	// pid 1 is the two-unit process, pids 2 and 3 one-unit tasks and
	// pid 4 a two-unit task; op 0 is each one's acquire.
	var got []string
	for _, e := range out.log {
		if e.pid > 0 && e.op == 0 {
			got = append(got, fmt.Sprintf("%d@%v", e.pid, e.at))
		}
	}
	if want := "1@1ms,2@2ms,3@2ms,4@4ms"; strings.Join(got, ",") != want {
		t.Fatalf("grants = %v, want %s", got, want)
	}
}

// TestCallsShareWaitQueuesWithProcesses runs the seeds in which tasks
// block inside Task.Call or through Event.WaitTask, and pins what they
// show: the semaphore grants in FIFO order across processes and
// calling tasks, and both kinds of task waiter wake at the Set.
func TestCallsShareWaitQueuesWithProcesses(t *testing.T) {
	checkSchedule(t, seedPrograms["calls-in-place"])
	// pids 1 and 3 are processes, 2 and 4 calling tasks; op 1 is each
	// one's acquire.
	out := checkSchedule(t, seedPrograms["calls-contended-semaphore"])
	var got []string
	for _, e := range out.log {
		if e.pid > 0 && e.op == 1 {
			got = append(got, fmt.Sprintf("%d@%v", e.pid, e.at))
		}
	}
	if want := "1@3ms,2@4ms,3@5ms,4@6ms"; strings.Join(got, ",") != want {
		t.Fatalf("grants = %v, want %s", got, want)
	}
	// pid 1 waits through WaitTask, pid 3 inside Call, and pid 4,
	// spawned after the Set, does not wait; op 0 is each one's wait.
	out = checkSchedule(t, seedPrograms["calls-event-wait"])
	got = got[:0]
	for _, e := range out.log {
		if e.pid != 0 && e.pid != 2 && e.op == 0 {
			got = append(got, fmt.Sprintf("%d@%v", e.pid, e.at))
		}
	}
	if want := "1@2ms,3@2ms,4@3ms"; strings.Join(got, ",") != want {
		t.Fatalf("wakes = %v, want %s", got, want)
	}
}

// TestScheduleSeedCorpus checks that the committed seed corpus holds
// exactly the encoded seed programs, and that the deadlocking seed
// reports the census both schedulers agree on without leaking the
// parked coroutines.
func TestScheduleSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSchedule")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, e := range entries {
		name := e.Name()
		p, ok := seedPrograms[name]
		if !ok {
			continue // a committed failing input, not a seed
		}
		seeds++
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil || data != string(encodeProgram(p)) {
			t.Errorf("%s: corpus entry %q does not encode the seed program (%v)", name, quoted, err)
		}
		if !reflect.DeepEqual(decodeProgram([]byte(data)), p) {
			t.Errorf("%s: corpus entry decodes to a different program", name)
		}
	}
	if seeds != len(seedPrograms) {
		t.Errorf("corpus holds %d of the %d seed programs", seeds, len(seedPrograms))
	}
	before := goroutines()
	out := checkSchedule(t, seedPrograms["deadlock-census"])
	want := []string{"virtual time: 0s", "processes alive: 3", "queue 2", "sem:s0 1"}
	if !reflect.DeepEqual(out.deadlock, want) {
		t.Fatalf("deadlock census = %q, want %q", out.deadlock, want)
	}
	if after := goroutines(); after != before {
		t.Fatalf("%d goroutines after the deadlocked runs, %d before", after, before)
	}
}

// TestRingFIFOWraparound drives a Ring through repeated push/pop cycles
// that wrap the backing array without growing it.
func TestRingFIFOWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Fill to 6 of 8 slots, then cycle 100 times: head and tail lap the
	// backing array repeatedly.
	for i := 0; i < 6; i++ {
		r.Push(next)
		next++
	}
	for i := 0; i < 100; i++ {
		v, ok := r.Pop()
		if !ok || v != expect {
			t.Fatalf("pop %d: got (%d,%v), want (%d,true)", i, v, ok, expect)
		}
		expect++
		r.Push(next)
		next++
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d after balanced cycling, want 6", r.Len())
	}
}

// TestRingGrowthPreservesOrder forces several capacity doublings from a
// deliberately wrapped state and checks strict FIFO across them.
func TestRingGrowthPreservesOrder(t *testing.T) {
	var r Ring[int]
	// Wrap the initial ring first so growth has to unwrap a split
	// [head..end)+[0..tail) layout.
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("warmup pop: got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	const n = 1000 // 8 -> 1024 capacity: seven doublings
	for i := 0; i < n; i++ {
		r.Push(i)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("pop: got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring returned ok")
	}
}

// TestTimerHeapPopsInDeadlineSeqOrder fills the timer heap with random
// timers whose deadlines collide often and checks that pop returns them
// in exactly sorted (deadline, seq) order; a second phase interleaves
// pushes and pops against a linear-scan reference.
func TestTimerHeapPopsInDeadlineSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(300)
		var h timerHeap
		want := make([]timer, 0, n)
		for _, seq := range rng.Perm(n) {
			tm := timer{deadline: time.Duration(rng.Intn(8)), seq: uint64(seq)}
			h.push(tm)
			want = append(want, tm)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
		for i, w := range want {
			if got := h.pop(); got != w {
				t.Fatalf("round %d, pop %d = (%v, %d), want (%v, %d)", round, i, got.deadline, got.seq, w.deadline, w.seq)
			}
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d timers left after popping all", round, len(h))
		}
	}

	var h timerHeap
	var ref []timer
	var seq uint64
	for op := 0; op < 5000; op++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			seq++
			tm := timer{deadline: time.Duration(rng.Intn(16)), seq: seq}
			h.push(tm)
			ref = append(ref, tm)
			continue
		}
		min := 0
		for i := range ref {
			if ref[i].before(&ref[min]) {
				min = i
			}
		}
		w := ref[min]
		ref = append(ref[:min], ref[min+1:]...)
		if got := h.pop(); got != w {
			t.Fatalf("op %d: pop = (%v, %d), want (%v, %d)", op, got.deadline, got.seq, w.deadline, w.seq)
		}
	}
}

// TestDeadlockDiagnosticCensus pins the diagnostic's content after
// batching: the panic must render one "reason: count" row per blocked
// reason, including interned per-semaphore reasons, with the right
// counts.
func TestDeadlockDiagnosticCensus(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
		census := map[string]int{}
		for _, line := range strings.Split(msg, "\n") {
			var label string
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "%s %d", &label, &n); err == nil {
				census[label] = n
			}
		}
		// The driver's Group.Wait parks on the group's done event, so
		// the event census includes it alongside the explicit waiter.
		for _, want := range []struct {
			label string
			n     int
		}{{"queue", 2}, {"event", 2}, {"sem:gate", 1}} {
			if census[want.label] != want.n {
				t.Errorf("census[%s] = %d, want %d (full diagnostic: %q)", want.label, census[want.label], want.n, msg)
			}
		}
	}()
	c := New()
	c.Run(func() {
		g := NewGroup(c)
		q := NewQueue[int](c)
		ev := NewEvent(c)
		sem := NewSemaphore(c, "gate", 1)
		g.Go("q1", func() { q.Get() })
		g.Go("q2", func() { q.Get() })
		g.Go("e1", func() { ev.Wait() })
		g.Go("s1", func() {
			sem.Acquire(1)
			sem.Acquire(1) // starves itself: nobody releases
		})
		g.Wait()
	})
}
