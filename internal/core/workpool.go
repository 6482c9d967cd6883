package core

import "gflink/internal/vclock"

// WorkPool recycles GWork shells so that steady-state submission —
// the producer half of the paper's producer-consumer execution model —
// allocates nothing: the shell, its In slice backing and its completion
// event are all reused across works. Get/Put pairs are enforced by the
// gflink-vet poolsafe analyzer; the GStreamManager owns one pool
// (Streams.Pool()) shared by every producer task.
//
// A GWork obtained from Get must not be touched after Put, and Put must
// run only after Wait returned (the completion event is Reset for the
// next user, which panics if anything is still blocked on it).
type WorkPool struct {
	clock *vclock.Clock
	free  []*GWork
}

// NewWorkPool returns an empty pool whose shells' completion events are
// bound to clock.
func NewWorkPool(clock *vclock.Clock) *WorkPool {
	return &WorkPool{clock: clock}
}

// Get returns a zeroed GWork shell with its completion event preset,
// ready for the caller to fill and Submit. The shell must come back via
// Put (or have its ownership visibly transferred) on every path.
//
//gflink:pool
func (p *WorkPool) Get() *GWork {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return w
	}
	// Pool cold start: shell and completion event are created once, then recycled.
	return &GWork{done: vclock.NewEvent(p.clock)}
}

// Put recycles a completed GWork. The completion event is rearmed and
// the In backing array is kept (element-zeroed so cached *HBuffer
// pointers don't pin host memory); every other field — including Args,
// whose backing belongs to the submitter — is dropped.
func (p *WorkPool) Put(w *GWork) {
	if w == nil {
		return
	}
	if w.done == nil {
		panic("core: WorkPool.Put of a GWork that was not pooled")
	}
	ev := w.done
	ev.Reset()
	for i := range w.In {
		w.In[i] = Input{}
	}
	*w = GWork{done: ev, In: w.In[:0]}
	// Amortized free-list growth, bounded by peak in-flight works.
	p.free = append(p.free, w)
}
