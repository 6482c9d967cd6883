// Package poolsafe exercises the poolsafe analyzer: every acquisition
// from a //gflink:pool source reaches exactly one Put, and nothing
// touches the value afterwards.
package poolsafe

import "poolsafe/dep"

type buf struct {
	b    []byte
	next *buf
}

type pool struct{ free []*buf }

// Get returns a pooled buf.
//
//gflink:pool
func (p *pool) Get() *buf {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		return w
	}
	return &buf{}
}

// Put returns a buf to the free list.
func (p *pool) Put(w *buf) { p.free = append(p.free, w) }

var sink *buf

func keep(w *buf)  { sink = w }
func touch(w *buf) { w.b = w.b[:0] }

func ok(p *pool) {
	w := p.Get()
	touch(w)
	w.b = append(w.b, 1)
	p.Put(w)
}

func okBranches(p *pool, c bool) {
	w := p.Get()
	if c {
		p.Put(w)
		return
	}
	w.b = nil
	p.Put(w)
}

func okDefer(p *pool) {
	w := p.Get()
	defer p.Put(w)
	w.b = append(w.b, 1) // legal: the deferred Put runs after this
}

func okDeferClosure(p *pool) {
	w := p.Get()
	defer func() { p.Put(w) }()
	w.b = nil
}

func okLoop(p *pool, n int) {
	for i := 0; i < n; i++ {
		w := p.Get()
		w.b = w.b[:0]
		p.Put(w)
	}
}

func okTransfer(p *pool, out []*buf) {
	w := p.Get()
	out[0] = w // ownership transferred; Put is the receiver's job now
}

func okReturn(p *pool) *buf {
	w := p.Get()
	return w // caller owns it
}

func leakNilCheck(p *pool) {
	w := p.Get() // want `not returned with Put on every path`
	if w == nil {
		return // conservative: even the nil-guarded path must Put
	}
	p.Put(w)
}

func leak(p *pool, c bool) {
	w := p.Get() // want `not returned with Put on every path`
	if c {
		return
	}
	p.Put(w)
}

func leakLoopBreak(p *pool, n int) {
	for i := 0; i < n; i++ {
		w := p.Get() // want `not returned with Put on every path`
		if w.next != nil {
			break
		}
		p.Put(w)
	}
}

func leakDiscard(p *pool) {
	p.Get() // want `discarded`
}

func doublePut(p *pool, c bool) {
	w := p.Get()
	if c {
		p.Put(w)
	}
	p.Put(w) // want `may already have been returned`
}

func useAfterPut(p *pool) {
	w := p.Get()
	p.Put(w)
	w.b = nil // want `used after being returned`
}

func escapeAfterPut(p *pool) {
	w := p.Get()
	p.Put(w)
	sink = w // want `used after being returned`
}

func retainedPut(p *pool) {
	w := p.Get()
	keep(w)  // keep stores w in a global...
	p.Put(w) // want `retained by an earlier call`
}

func touchedPut(p *pool) {
	w := p.Get()
	touch(w) // touch only mutates in place: no retention
	p.Put(w)
}

func retainedPutCrossPackage(p *dep.Pool) {
	w := p.Get()
	dep.Keep(w) // dep.Keep stores w in a global...
	p.Put(w)    // want `retained by an earlier call`
}

func okDep(p *dep.Pool) {
	w := p.Get()
	w.N++
	p.Put(w)
}

func leakDep(p *dep.Pool, c bool) {
	w := p.Get() // want `not returned with Put on every path`
	if c {
		p.Put(w)
	}
}

func okLabeledLoops(p *pool, m, n int) {
outer:
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			w := p.Get()
			if j == 1 {
				p.Put(w)
				continue outer
			}
			p.Put(w)
		}
	}
}

func leakLabeledBreak(p *pool, m, n int) {
outer:
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			w := p.Get() // want `not returned with Put on every path`
			if j == 2 {
				break outer // jumps past both Put sites
			}
			p.Put(w)
		}
	}
}

func okSelectDefault(p *pool, ch chan int) {
	w := p.Get()
	select {
	case <-ch:
		p.Put(w)
	default:
		p.Put(w)
	}
}

func leakSelectDefault(p *pool, ch chan int) {
	w := p.Get() // want `not returned with Put on every path`
	select {
	case <-ch:
		p.Put(w)
	default:
	}
}

func okDeferInLoopBody(p *pool, n int) {
	for i := 0; i < n; i++ {
		w := p.Get()
		defer p.Put(w) // arms once per iteration; each w is returned at exit
		w.b = nil
	}
}
