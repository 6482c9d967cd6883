package buflifecycle

import (
	"gflink/internal/membuf"
	"gflink/internal/vclock"
)

var kept []*membuf.HBuffer

func keep(b *membuf.HBuffer) { kept = append(kept, b) }

func freedOnOneBranch(p *membuf.Pool, c bool) {
	b := p.MustAllocate(64) // want `HBuffer "b" from Pool\.MustAllocate is never freed or transferred`
	if c {
		b.Free()
	}
}

func doubleFree(p *membuf.Pool, c bool) {
	b := p.MustAllocate(64)
	if c {
		b.Free()
	}
	b.Free() // want `HBuffer may already have been freed`
}

func useAfterFree(p *membuf.Pool) int {
	b := p.MustAllocate(64)
	b.Free()
	return b.Size() // want `HBuffer used after Free`
}

func freeRetained(p *membuf.Pool) {
	b := p.MustAllocate(64)
	keep(b)
	b.Free() // want `HBuffer was retained by an earlier call`
}

func pinOnOneBranch(b *membuf.HBuffer, c bool) {
	b.Pin() // want `HBuffer "b" is pinned but never unpinned, freed or transferred`
	if c {
		b.Unpin()
	}
}

func leakInGo(c *vclock.Clock, p *membuf.Pool, done bool) {
	c.Go("producer", func() {
		b := p.MustAllocate(64) // want `HBuffer "b" from Pool\.MustAllocate is never freed or transferred`
		if done {
			b.Free()
		}
	})
}

func okErrNil(p *membuf.Pool) (*membuf.HBuffer, error) {
	b, err := p.Allocate(64)
	if err == nil {
		return b, nil
	}
	return nil, err
}

func okDeferFreeThenPin(p *membuf.Pool) {
	b := p.MustAllocate(64)
	defer b.Free()
	b.Pin()
	_ = b.Bytes()
}

func okRangeLoop(p *membuf.Pool, sizes []int) {
	for _, n := range sizes {
		b := p.MustAllocate(n)
		b.Free()
	}
}
