package vclock

// FIFO is a head-indexed first-in-first-out queue that recycles its
// backing array instead of re-slicing it away: Pop zeroes the popped
// slot and advances a head index, and the array is reused once the
// queue drains (or compacted in place when it fills while partially
// consumed). Push therefore allocates only on genuine capacity growth,
// which keeps steady-state producers/consumers — the scheduler run
// queue, stream inboxes, per-device work queues — allocation-free.
//
// A FIFO is not safe for concurrent use: like every primitive of
// this package it relies on the clock running one process at a time.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued items.
//
//gflink:hotpath
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v at the tail.
//
//gflink:hotpath
func (f *FIFO[T]) Push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		// Full but partially consumed: compact in place instead of
		// growing, so steady-state traffic reuses the array forever.
		var zero T
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	//gflink:allow-alloc amortized growth of the queue's backing array
	f.buf = append(f.buf, v)
}

// Pop removes and returns the head item; ok is false on an empty
// queue. The vacated slot is zeroed so popped values are not retained.
//
//gflink:hotpath
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.head >= len(f.buf) {
		return v, false
	}
	var zero T
	v = f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
		f.buf = f.buf[:0]
	}
	return v, true
}

// Front returns the head item without removing it; ok is false on an
// empty queue.
//
//gflink:hotpath
func (f *FIFO[T]) Front() (v T, ok bool) {
	if f.head >= len(f.buf) {
		return v, false
	}
	return f.buf[f.head], true
}

// At returns the i'th queued item (0 is the head). It panics when i is
// out of range, matching slice indexing.
//
//gflink:hotpath
func (f *FIFO[T]) At(i int) T { return f.buf[f.head+i] }
