package buflifecycle

import (
	"gflink/internal/membuf"

	"buflifecycle/dep"
)

var (
	bufs  []*membuf.HBuffer
	views [][]byte
)

// keepBoth retains a pointer and a slice parameter.
func keepBoth(b *membuf.HBuffer, v []byte) {
	bufs = append(bufs, b)
	views = append(views, v)
}

// size only reads b, through a local alias.
func size(b *membuf.HBuffer) int {
	x := b
	return x.Size()
}

func freeRetainedWithSlice(p *membuf.Pool, v []byte) {
	b := p.MustAllocate(64)
	keepBoth(b, v)
	b.Free() // want `HBuffer was retained by an earlier call`
}

func freeRetainedCrossPackage(p *membuf.Pool) {
	b := p.MustAllocate(64)
	dep.Keep(b)
	b.Free() // want `HBuffer was retained by an earlier call`
}

func okFreeAfterAliasRead(p *membuf.Pool) int {
	b := p.MustAllocate(64)
	n := size(b)
	b.Free()
	return n
}

func okFreeAfterCrossRead(p *membuf.Pool) int {
	b := p.MustAllocate(64)
	n := dep.Size(b)
	b.Free()
	return n
}

type report struct{ buf *membuf.HBuffer }

var reports []*report

// stash stores b in a field of a local that then escapes.
func stash(b *membuf.HBuffer) {
	r := &report{}
	r.buf = b
	reports = append(reports, r)
}

func freeStashed(p *membuf.Pool) {
	b := p.MustAllocate(64)
	stash(b)
	b.Free() // want `HBuffer was retained by an earlier call`
}

type slots struct{ entries []*report }

// park stores b in the report a slot points at, through a local.
func park(t *slots, i int, b *membuf.HBuffer) {
	e := t.entries[i]
	e.buf = b
}

func freeParked(p *membuf.Pool, t *slots) {
	b := p.MustAllocate(64)
	park(t, 0, b)
	b.Free() // want `HBuffer was retained by an earlier call`
}

type queue[T any] struct{ items []T }

func (q *queue[T]) put(v T) { q.items = append(q.items, v) }

// A same-package generic container retains like any other callee.
func freeAfterGenericPut(p *membuf.Pool, q *queue[*membuf.HBuffer]) {
	b := p.MustAllocate(64)
	q.put(b)
	b.Free() // want `HBuffer was retained by an earlier call`
}
