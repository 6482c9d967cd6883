// Fixture for the buflifecycle analyzer: HBuffers must reach Free or a
// visible ownership transfer; Pin must pair with Unpin/Free/transfer.
package buflifecycle

import (
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

type holder struct {
	buf *membuf.HBuffer
}

func leak(p *membuf.Pool) {
	b := p.MustAllocate(64) // want `HBuffer "b" from Pool\.MustAllocate is never freed or transferred`
	_ = b.Bytes()
}

func leakAllocate(p *membuf.Pool) error {
	b, err := p.Allocate(64) // want `HBuffer "b" from Pool\.Allocate is never freed or transferred`
	if err != nil {
		return err
	}
	_ = b.Size()
	return nil
}

func discard(p *membuf.Pool) {
	_ = p.MustAllocate(64) // want `result of Pool\.MustAllocate is discarded`
	p.MustAllocate(128)    // want `result of Pool\.MustAllocate is discarded`
}

func pinLeak(b *membuf.HBuffer) {
	b.Pin() // want `HBuffer "b" is pinned but never unpinned, freed or transferred`
	_ = b.Bytes()
}

func okFree(p *membuf.Pool) {
	b := p.MustAllocate(64)
	_ = b.Bytes()
	b.Free()
}

func okDeferFree(p *membuf.Pool) {
	b := p.MustAllocate(64)
	defer b.Free()
	_ = b.Bytes()
}

func okReturn(p *membuf.Pool) (*membuf.HBuffer, error) {
	b, err := p.Allocate(64)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func okFieldStore(p *membuf.Pool, h *holder) {
	h.buf = p.MustAllocate(64)
}

func okPassedOn(p *membuf.Pool, sink func(*membuf.HBuffer)) {
	b := p.MustAllocate(64)
	sink(b)
}

func okAppended(p *membuf.Pool, bufs []*membuf.HBuffer) []*membuf.HBuffer {
	b := p.MustAllocate(64)
	return append(bufs, b)
}

func okInlineArg(p *membuf.Pool, sink func(*membuf.HBuffer)) {
	sink(p.MustAllocate(64))
}

func okFreedInClosure(c *vclock.Clock, p *membuf.Pool) {
	b := p.MustAllocate(64)
	c.Go("consumer", func() {
		_ = b.Bytes()
		b.Free()
	})
}

func okDirective(p *membuf.Pool) []byte {
	//gflink:owns-buffer -- the caller's registry keeps the buffer alive
	b := p.MustAllocate(64)
	// owns-buffer covers the Free obligation, not the views.
	return b.Bytes() // want `zero-copy HBuffer view escapes: returned to the caller`
}

func okPinUnpin(b *membuf.HBuffer) {
	b.Pin()
	defer b.Unpin()
	_ = b.Bytes()
}

func okPinThenFree(p *membuf.Pool) {
	b := p.MustAllocate(64)
	b.Pin()
	b.Free()
}
