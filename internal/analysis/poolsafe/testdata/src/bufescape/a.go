package bufescape

import (
	"gflink/internal/membuf"

	"bufescape/dep"
)

type sink struct {
	view []byte
}

var global []byte

// --- direct escapes of the call result ---

func returned(b *membuf.HBuffer) []byte {
	return b.Bytes() // want `returned to the caller`
}

func field(s *sink, b *membuf.HBuffer) {
	s.view = b.Bytes() // want `stored in a struct field`
}

func toGlobal(b *membuf.HBuffer) {
	global = b.Bytes() // want `stored in the global variable "?global`
}

func send(ch chan []byte, b *membuf.HBuffer) {
	ch <- b.Bytes() // want `sent on a channel`
}

func appended(acc [][]byte, b *membuf.HBuffer) [][]byte {
	return append(acc, b.Bytes()) // want `appended to a slice`
}

func inComposite(b *membuf.HBuffer) *sink {
	return &sink{view: b.Bytes()} // want `returned to the caller`
}

// --- escapes through a local alias ---

func viaLocal(s *sink, b *membuf.HBuffer) {
	v := b.Bytes()
	s.view = v // want `stored in a struct field`
}

func sliced(b *membuf.HBuffer) []byte {
	v := b.Bytes()
	return v[8:16] // want `returned to the caller`
}

func converted(b *membuf.HBuffer) []byte {
	v := b.Bytes()
	return []byte(v) // want `returned to the caller`
}

func closure(b *membuf.HBuffer) func() byte {
	v := b.Bytes()
	return func() byte { // want `captured by a function literal`
		return v[0]
	}
}

func elementPointer(b *membuf.HBuffer) *byte {
	v := b.Bytes()
	return &v[0] // want `returned to the caller`
}

// --- transient views: the zero-copy fast path stays legal ---

func transient(b *membuf.HBuffer) byte {
	v := b.Bytes()
	return v[3] // element read copies the byte: allowed
}

func fill(b *membuf.HBuffer) {
	v := b.Bytes()
	for i := range v {
		v[i] = 0 // writing through the view is the point: allowed
	}
}

func copied(dst, src *membuf.HBuffer) {
	copy(dst.Bytes(), src.Bytes()) // copy reads and writes in place: allowed
}

func appendCopy(acc []byte, b *membuf.HBuffer) []byte {
	return append(acc, b.Bytes()...) // element-wise copy: allowed
}

func toString(b *membuf.HBuffer) string {
	return string(b.Bytes()) // string conversion copies: allowed
}

// --- retention through callees ---

func keep(s *sink, p []byte) {
	s.view = p
}

func read(p []byte) int {
	n := 0
	for _, x := range p {
		n += int(x)
	}
	return n
}

func passedRetained(s *sink, b *membuf.HBuffer) {
	keep(s, b.Bytes()) // want `passed to keep, which retains that argument`
}

func passedRead(b *membuf.HBuffer) int {
	return read(b.Bytes()) // callee only reads: allowed
}

func crossRetained(c *dep.Cache, b *membuf.HBuffer) {
	c.Put(b.Bytes()) // want `passed to Put, which retains that argument`
}

func crossRetainedIndirect(c *dep.Cache, b *membuf.HBuffer) {
	c.PutIndirect(b.Bytes()) // want `passed to PutIndirect, which retains that argument`
}

func crossRead(b *membuf.HBuffer) int {
	return dep.Sum(b.Bytes()) // callee only reads: allowed
}

// --- justified retention is silenced per site ---

func pinnedForRun(s *sink, b *membuf.HBuffer) {
	s.view = b.Bytes() //gflink:retains-bytes -- s is dropped before the pool reclaims b
}

// --- views inside function literals ---

// A view bound and used only inside the literal is the literal's own
// transient view; the enclosing function captures nothing.
func literalLocalView(p *membuf.Pool, run func(func())) {
	run(func() {
		b := p.MustAllocate(64)
		v := b.Bytes()
		_ = v[0]
		b.Free()
	})
}

// A literal that stores a view into a variable of its enclosing
// function lets the view outlive the literal.
func literalStoresCaptured(p *membuf.Pool, run func(func())) []byte {
	var keep []byte
	run(func() {
		b := p.MustAllocate(64)
		keep = b.Bytes() // want `stored in the captured variable keep`
		b.Free()
	})
	return keep
}
