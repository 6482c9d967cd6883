package vclock

// Ring is a growable circular first-in-first-out buffer. It never
// copies at steady state: Push writes at (head+n) mod cap and Pop
// advances head, so a queue that stays non-empty forever still reuses
// the same backing array. The array is free-listed in the sense of
// invariant 10: it is allocated on genuine capacity growth only and
// recycled across every push/pop cycle thereafter. Capacity is kept a
// power of two so the wrap is a mask, not a division.
//
// Every FIFO queue of the simulator is a Ring: the dispatcher's run
// queue, the waiters of every Queue,
// Semaphore and Event, and the GStreamManager's per-GPU work queues and
// idle-stream lists. They carry sustained traffic for the whole
// simulation and must not copy or allocate per event.
//
// A Ring is not safe for concurrent use: like every primitive of
// this package it relies on the clock running one process at a time.
type Ring[T any] struct {
	buf []T
	// head and n are uint32 so a Ring is four words: every Queue,
	// Semaphore and Event embeds one or two, and two more words would
	// move each of them up an allocation size class.
	head, n uint32
}

// Len reports the number of queued items.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v at the tail, growing the backing array only when full.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(int(r.head)+int(r.n))&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head item; ok is false on an empty ring.
// The vacated slot is zeroed so popped values are not retained.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = uint32((int(r.head) + 1) & (len(r.buf) - 1))
	r.n--
	return v, true
}

// Front returns the head item without removing it; ok is false on an
// empty ring.
func (r *Ring[T]) Front() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// grow doubles the capacity (always a power of two) and unrolls the
// circular contents to the front of the new array. The first push
// allocates one slot, as append does for a pointer-sized element, so a
// queue that never holds more than one item stays that small.
func (r *Ring[T]) grow() {
	newCap := max(1, 2*len(r.buf))
	buf := make([]T, newCap)
	for i := 0; i < int(r.n); i++ {
		buf[i] = r.buf[(int(r.head)+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
