package vclock

// Ring is a growable circular FIFO buffer. Unlike FIFO (which compacts
// its backing array in place when it fills while partially consumed),
// a Ring never copies at steady state: Push writes at (head+n) mod cap
// and Pop advances head, so a queue that stays non-empty forever still
// reuses the same backing array. The array is free-listed in the sense
// of invariant 10: it is allocated on genuine capacity growth only and
// recycled across every push/pop cycle thereafter. Capacity is kept a
// power of two so the wrap is a mask, not a division.
//
// The dispatcher's run queue and co-deadline wake batch are Rings; they
// carry sustained traffic for the whole simulation and must not copy or
// allocate per event.
//
// A Ring is not safe for concurrent use: like every primitive of
// this package it relies on the clock running one process at a time.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued items.
//
//gflink:hotpath
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, growing the backing array only when full.
//
//gflink:hotpath
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head item; ok is false on an empty ring.
// The vacated slot is zeroed so popped values are not retained.
//
//gflink:hotpath
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// grow doubles the capacity (minimum 8, always a power of two) and
// unrolls the circular contents to the front of the new array.
//
//gflink:hotpath
func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap < 8 {
		newCap = 8
	}
	//gflink:allow-alloc amortized doubling of the ring's backing array
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
