package vclock

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The schedule oracle: a small op language, an interpreter that runs a
// program on the real Clock, and a reference scheduler that runs the
// same program by the textbook rule — the next ready process first,
// else exactly one timer per step in (deadline, seq) order. Both sides
// log (process, op index, virtual time) as each op completes, and the
// logs must be identical. Process ids count spawns in execution order,
// so the root is 0.

type opKind uint8

const (
	opSleep   opKind = iota // sleep arg ms (0..3)
	opAcquire               // acquire 1+arg units of semaphore obj
	opRelease               // release up to 1+arg units of semaphore obj, capped at what the process holds
	opPut                   // put onto queue obj; skipped once the queue is closed
	opGet                   // get from queue obj; logs the value, or -1 when closed and drained
	opClose                 // close queue obj
	opSet                   // set event obj
	opWait                  // wait on event obj
	opSpawn                 // spawn a process running body obj; only later bodies, at most maxSchedProcs processes
	numOpKinds
)

const maxSchedProcs = 16

type schedOp struct {
	kind     opKind
	obj, arg int
}

// schedProgram is one scenario: the primitives it uses and one op list
// per body. The root process runs body 0. Bit b of tasks makes the
// real Clock run each spawn of body b as a Task; bit 0 is never set.
// Bit b of calls, set only with bit b of tasks, makes that task run
// each run of consecutive blocking ops (sleep, acquire, get, wait)
// through the stackful primitives inside one Task.Call. The reference
// scheduler ignores both: to it a task is a process.
type schedProgram struct {
	semCaps        []int64
	queues, events int
	bodies         [][]schedOp
	tasks, calls   uint32
}

type logEntry struct {
	pid, op int
	at      time.Duration
	val     int // opGet's result
}

// schedOutcome is a run's log plus, if it deadlocked, the census rows
// of the diagnostic ("virtual time", "processes alive", then one row
// per blocked reason in label order).
type schedOutcome struct {
	log      []logEntry
	deadlock []string
}

// progState is the bookkeeping both runners share: the log, the units
// each process holds, which queues are closed and how many processes
// exist.
type progState struct {
	p      *schedProgram
	log    []logEntry
	held   [][]int64
	closed []bool
}

func newProgState(p *schedProgram) *progState {
	return &progState{p: p, closed: make([]bool, p.queues)}
}

func (s *progState) newPid() int {
	s.held = append(s.held, make([]int64, len(s.p.semCaps)))
	return len(s.held) - 1
}

func (s *progState) acquireUnits(o schedOp) int64 { return 1 + int64(o.arg)%s.p.semCaps[o.obj] }

func (s *progState) releaseUnits(pid int, o schedOp) int64 {
	return min(1+int64(o.arg)%3, s.held[pid][o.obj])
}

// spawnable reports whether a spawn of o.obj from body runs at all.
func (s *progState) spawnable(body int, o schedOp) bool {
	return o.obj > body && len(s.held) < maxSchedProcs
}

func (s *progState) record(pid, op int, at time.Duration, val int) {
	s.log = append(s.log, logEntry{pid, op, at, val})
}

func putValue(pid, op int) int { return pid<<8 | op }

// runReal runs p on a real Clock.
func runReal(p *schedProgram) (out schedOutcome) {
	c := New()
	st := newProgState(p)
	sems := make([]*Semaphore, len(p.semCaps))
	for i, capacity := range p.semCaps {
		sems[i] = NewSemaphore(c, fmt.Sprintf("s%d", i), capacity)
	}
	queues := make([]*Queue[int], p.queues)
	for i := range queues {
		queues[i] = NewQueue[int](c)
	}
	events := make([]*Event, p.events)
	for i := range events {
		events[i] = NewEvent(c)
	}
	dead := false
	var run, spawnTask func(pid, body int)
	// block runs op i of body for pid when o is a blocking op, through
	// the stackful primitives, and returns the value to log.
	block := func(pid int, o schedOp) (val int) {
		switch o.kind {
		case opSleep:
			c.Sleep(time.Duration(o.arg%4) * time.Millisecond)
		case opAcquire:
			n := st.acquireUnits(o)
			sems[o.obj].Acquire(n)
			st.held[pid][o.obj] += n
		case opGet:
			v, ok := queues[o.obj].Get()
			if !ok {
				v = -1
			}
			val = v
		case opWait:
			events[o.obj].Wait()
		}
		return val
	}
	// apply runs op i of body for pid when o is an op that never blocks.
	apply := func(pid, body, i int, o schedOp) {
		switch o.kind {
		case opRelease:
			if n := st.releaseUnits(pid, o); n > 0 {
				st.held[pid][o.obj] -= n
				sems[o.obj].Release(n)
			}
		case opPut:
			if !st.closed[o.obj] {
				queues[o.obj].Put(putValue(pid, i))
			}
		case opClose:
			st.closed[o.obj] = true
			queues[o.obj].Close()
		case opSet:
			events[o.obj].Set()
		case opSpawn:
			if st.spawnable(body, o) {
				child := st.newPid()
				if p.tasks&(1<<o.obj) != 0 {
					spawnTask(child, o.obj)
				} else {
					c.Go("proc", func() { run(child, o.obj) })
				}
			}
		}
	}
	run = func(pid, body int) {
		for i, o := range p.bodies[body] {
			val := 0
			if blocking(o.kind) {
				val = block(pid, o)
			} else {
				apply(pid, body, i, o)
			}
			if dead {
				return
			}
			st.record(pid, i, c.Now(), val)
		}
	}
	// spawnTask runs body as a step machine: pc is the op in progress,
	// and resumed says the task parked in it, so a Sleep, Acquire or
	// Wait has completed when the step runs next (a Get retries, as Get
	// does). A calling task runs each run of blocking ops, pc up to
	// end, in one Call, which logs every op as it completes.
	spawnTask = func(pid, body int) {
		ops := p.bodies[body]
		pc, end, resumed := 0, 0, false
		stackful := func() {
			for ; pc < end; pc++ {
				val := block(pid, ops[pc])
				if dead {
					return
				}
				st.record(pid, pc, c.Now(), val)
			}
		}
		var t *Task
		t = c.Spawn("task", func() {
			for pc < len(ops) {
				if dead {
					// A deadlocked run is being reaped: the Call it
					// parked in has returned.
					t.Exit()
					return
				}
				if p.calls&(1<<body) != 0 && blocking(ops[pc].kind) {
					end = pc + 1
					for end < len(ops) && blocking(ops[end].kind) {
						end++
					}
					if !t.Call(stackful) {
						return
					}
					continue
				}
				o, val := ops[pc], 0
				switch o.kind {
				case opSleep:
					if !resumed && !t.Sleep(time.Duration(o.arg%4)*time.Millisecond) {
						resumed = true
						return
					}
				case opAcquire:
					n := st.acquireUnits(o)
					if !resumed && !sems[o.obj].AcquireTask(t, n) {
						resumed = true
						return
					}
					st.held[pid][o.obj] += n
				case opGet:
					v, ok, wait := queues[o.obj].GetTask(t)
					if wait {
						return
					}
					if !ok {
						v = -1
					}
					val = v
				case opWait:
					if !resumed && !events[o.obj].WaitTask(t) {
						resumed = true
						return
					}
				default:
					apply(pid, body, pc, o)
				}
				resumed = false
				st.record(pid, pc, c.Now(), val)
				pc++
			}
			t.Exit()
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "vclock: deadlock") {
			panic(r)
		}
		out.log = st.log
		out.deadlock = parseCensus(msg)
		reapParked(&dead, sems, queues, events)
	}()
	c.Run(func() { run(st.newPid(), 0) })
	return schedOutcome{log: st.log}
}

// reapParked finishes the coroutines a deadlock leaves parked, so that
// fuzzing does not leak one goroutine per blocked process: with every
// queue closed, each parked process returns from its primitive, sees
// dead and exits. A task parked inside Call returns from its Call, and
// its next step exits, stopping the stack it borrowed; a task parked
// outside Call has no coroutine to finish.
func reapParked(dead *bool, sems []*Semaphore, queues []*Queue[int], events []*Event) {
	var parked []*Task
	collect := func(r *Ring[*waiter]) {
		// Pop and re-push every waiter: a full turn keeps the order.
		for i := r.Len(); i > 0; i-- {
			w, _ := r.Pop()
			if w.p.yield != nil {
				parked = append(parked, w.p)
			}
			r.Push(w)
		}
	}
	for _, s := range sems {
		collect(&s.waiters)
	}
	for _, q := range queues {
		collect(&q.waiters)
	}
	for _, e := range events {
		collect(&e.waiters)
	}
	*dead = true
	for _, q := range queues {
		q.Close()
	}
	for _, p := range parked {
		p.next()
	}
}

// parseCensus extracts the diagnostic's lines after the headline,
// whitespace-normalized.
func parseCensus(msg string) []string {
	var rows []string
	for _, line := range strings.Split(msg, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 && line != "  blocked on:" {
			rows = append(rows, strings.Join(f, " "))
		}
	}
	return rows
}

// runModel runs p on the reference scheduler.
func runModel(p *schedProgram) schedOutcome {
	type mproc struct {
		body, pc int
		parked   bool   // blocked on the op at pc
		why      string // census label while parked
		done     bool
	}
	type mwaiter struct {
		pid int
		n   int64
	}
	type mtimer struct {
		at  time.Duration
		seq uint64
		pid int
	}
	st := newProgState(p)
	free := append([]int64(nil), p.semCaps...)
	semQ := make([][]mwaiter, len(free))
	items := make([][]int, p.queues)
	queueQ := make([][]int, p.queues)
	isSet := make([]bool, p.events)
	eventQ := make([][]int, p.events)
	var (
		procs  []*mproc
		runq   []int
		timers []mtimer
		now    time.Duration
		seq    uint64
	)
	spawn := func(body int) {
		procs = append(procs, &mproc{body: body})
		runq = append(runq, st.newPid())
	}
	wakeAll := func(q []int) []int {
		runq = append(runq, q...)
		return q[:0]
	}
	// step runs pid until it blocks or finishes. A woken process's
	// pending op has completed, except Get, which retries.
	step := func(pid int) {
		m := procs[pid]
		ops := p.bodies[m.body]
		if m.parked {
			m.parked = false
			if o := ops[m.pc]; o.kind != opGet {
				if o.kind == opAcquire {
					st.held[pid][o.obj] += st.acquireUnits(o)
				}
				st.record(pid, m.pc, now, 0)
				m.pc++
			}
		}
		for ; m.pc < len(ops); m.pc++ {
			o, val := ops[m.pc], 0
			block := func(why string) { m.parked, m.why = true, why }
			switch o.kind {
			case opSleep:
				seq++
				timers = append(timers, mtimer{now + time.Duration(o.arg%4)*time.Millisecond, seq, pid})
				block("sleep")
			case opAcquire:
				if n := st.acquireUnits(o); len(semQ[o.obj]) == 0 && free[o.obj] >= n {
					free[o.obj] -= n
					st.held[pid][o.obj] += n
				} else {
					semQ[o.obj] = append(semQ[o.obj], mwaiter{pid, n})
					block(fmt.Sprintf("sem:s%d", o.obj))
				}
			case opRelease:
				n := st.releaseUnits(pid, o)
				free[o.obj] += n
				st.held[pid][o.obj] -= n
				for n > 0 && len(semQ[o.obj]) > 0 && semQ[o.obj][0].n <= free[o.obj] {
					free[o.obj] -= semQ[o.obj][0].n
					runq = append(runq, semQ[o.obj][0].pid)
					semQ[o.obj] = semQ[o.obj][1:]
				}
			case opPut:
				if !st.closed[o.obj] {
					items[o.obj] = append(items[o.obj], putValue(pid, m.pc))
					if len(queueQ[o.obj]) > 0 {
						runq = append(runq, queueQ[o.obj][0])
						queueQ[o.obj] = queueQ[o.obj][1:]
					}
				}
			case opGet:
				switch {
				case len(items[o.obj]) > 0:
					val, items[o.obj] = items[o.obj][0], items[o.obj][1:]
				case st.closed[o.obj]:
					val = -1
				default:
					queueQ[o.obj] = append(queueQ[o.obj], pid)
					block("queue")
				}
			case opClose:
				st.closed[o.obj] = true
				queueQ[o.obj] = wakeAll(queueQ[o.obj])
			case opSet:
				if !isSet[o.obj] {
					isSet[o.obj] = true
					eventQ[o.obj] = wakeAll(eventQ[o.obj])
				}
			case opWait:
				if !isSet[o.obj] {
					eventQ[o.obj] = append(eventQ[o.obj], pid)
					block("event")
				}
			case opSpawn:
				if st.spawnable(m.body, o) {
					spawn(o.obj)
				}
			}
			if m.parked {
				return
			}
			st.record(pid, m.pc, now, val)
		}
		m.done = true
	}
	spawn(0)
	for {
		switch {
		case len(runq) > 0:
			pid := runq[0]
			runq = runq[1:]
			step(pid)
		case len(timers) > 0:
			first := 0
			for i, t := range timers {
				if t.at < timers[first].at || t.at == timers[first].at && t.seq < timers[first].seq {
					first = i
				}
			}
			t := timers[first]
			timers = append(timers[:first], timers[first+1:]...)
			now = t.at
			step(t.pid)
		default:
			census := map[string]int{}
			var labels []string // census keys, first-seen order
			alive := 0
			for _, m := range procs {
				if !m.done {
					alive++
					if census[m.why] == 0 {
						labels = append(labels, m.why)
					}
					census[m.why]++
				}
			}
			out := schedOutcome{log: st.log}
			if alive == 0 {
				return out
			}
			out.deadlock = []string{fmt.Sprintf("virtual time: %v", now), fmt.Sprintf("processes alive: %d", alive)}
			for _, label := range labels {
				out.deadlock = append(out.deadlock, fmt.Sprintf("%s %d", label, census[label]))
			}
			sort.Strings(out.deadlock[2:])
			return out
		}
	}
}

// checkSchedule runs p on both schedulers, fails t unless they agree,
// and returns the log.
func checkSchedule(t *testing.T, p *schedProgram) schedOutcome {
	t.Helper()
	got, want := runReal(p), runModel(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Clock and reference scheduler disagree\nclock: %+v\nmodel: %+v", got, want)
	}
	return got
}

// blocking reports whether an op of kind k can block.
func blocking(k opKind) bool {
	return k == opSleep || k == opAcquire || k == opGet || k == opWait
}

// decodeProgram turns fuzz bytes into a program; missing bytes read as
// zero. Every field is a byte taken modulo its range, so encodeProgram
// is its inverse. A body's length byte carries its task flag in bit 4
// and, for a task, its call flag in bit 5.
func decodeProgram(data []byte) *schedProgram {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	p := &schedProgram{}
	for i := next(3); i >= 0; i-- {
		p.semCaps = append(p.semCaps, int64(1+next(3)))
	}
	p.queues, p.events = 1+next(2), 1+next(2)
	p.bodies = make([][]schedOp, 1+next(4))
	counts := [numOpKinds]int{len(p.semCaps), len(p.semCaps), len(p.semCaps), p.queues, p.queues, p.queues, p.events, p.events, len(p.bodies)}
	for b := range p.bodies {
		n := next(64)
		if b > 0 && n&16 != 0 {
			p.tasks |= 1 << b
			if n&32 != 0 {
				p.calls |= 1 << b
			}
		}
		p.bodies[b] = make([]schedOp, n%16)
		for i := range p.bodies[b] {
			k := opKind(next(int(numOpKinds)))
			p.bodies[b][i] = schedOp{k, next(counts[k]), next(256)}
		}
	}
	return p
}

func encodeProgram(p *schedProgram) []byte {
	out := []byte{byte(len(p.semCaps) - 1)}
	for _, c := range p.semCaps {
		out = append(out, byte(c-1))
	}
	out = append(out, byte(p.queues-1), byte(p.events-1), byte(len(p.bodies)-1))
	for b, ops := range p.bodies {
		out = append(out, byte(len(ops))|byte(p.tasks>>b&1)<<4|byte(p.calls>>b&1)<<5)
		for _, o := range ops {
			out = append(out, byte(o.kind), byte(o.obj), byte(o.arg))
		}
	}
	return out
}

// FuzzSchedule checks the Clock against the reference scheduler on
// random programs that mix processes, tasks and tasks that block
// inside Task.Call: identical (process,
// op, time) logs, and a deadlock reported exactly when the model
// deadlocks, with the same census. The committed seed corpus holds the
// hand-written programs of batch_test.go.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSchedule(t, decodeProgram(data))
	})
}
