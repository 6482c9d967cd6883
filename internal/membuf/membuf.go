// Package membuf models GFlink's off-heap memory management
// (Section 4.1.2): page-granular direct buffers that live outside the
// garbage-collected JVM heap, can be pinned (cudaHostRegister) for
// asynchronous DMA, and whose raw bytes are handed to the transfer
// channel without any heap-to-native copy.
//
// The simulator runs in Go, so the buffers are Go memory, but the pool
// manages them the way an off-heap allocator does: fixed page size
// (matching Flink's memory segments), a bounded page budget per worker,
// HBuffers charged in whole pages, the rule that a GStruct never
// straddles a page boundary (Section 5.1), and spans that are recycled
// rather than returned to the garbage collector. Pages are the unit the
// simulation charges and counts (capacity, pinning); a buffer's Go
// backing, its span, is exactly its requested size. A freed span goes
// onto the pool's spare list for its byte size, and the next Allocate
// of that size reuses it, so a steady Allocate/Free cycle does not
// touch the Go heap beyond the HBuffer handle. Spans never leave the
// pool: for each size it keeps as many spans as it ever had buffers of
// that size live at once.
package membuf

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// DefaultPageSize matches Flink's default memory-segment size.
const DefaultPageSize = 32 * 1024

// Config sizes a Pool.
type Config struct {
	// PageSize is the accounting granule: a buffer is charged and pinned
	// as its size rounded up to whole pages. Defaults to DefaultPageSize.
	PageSize int
	// CapacityPages bounds the pool; 0 means unbounded.
	CapacityPages int
}

// Pool is one worker's off-heap memory region.
type Pool struct {
	clock    *vclock.Clock
	model    costmodel.Model
	pageSize int
	capacity int // pages; 0 = unbounded

	inUse   int // pages
	peak    int
	allocs  int64
	frees   int64
	pinned  int // pages currently page-locked
	pinOps  int64
	nextIDs int64
	reused  int64
	// spare holds freed spans by byte size, most recently freed last.
	// spareTotal counts the pages their buffers held.
	spare      map[int]*[][]byte
	spareTotal int
}

// NewPool creates a pool on the given clock and hardware model.
func NewPool(clock *vclock.Clock, model costmodel.Model, cfg Config) *Pool {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	return &Pool{clock: clock, model: model, pageSize: cfg.PageSize, capacity: cfg.CapacityPages}
}

// PageSize returns the pool's accounting granule.
func (p *Pool) PageSize() int { return p.pageSize }

// Allocate returns a zeroed HBuffer of n bytes, charged to the pool as
// n rounded up to whole pages. It reuses a freed span of the same size
// when the pool holds one. It fails when the pool's page budget is
// exhausted, modelling an off-heap OutOfMemory condition.
func (p *Pool) Allocate(n int) (*HBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("membuf: allocate %d bytes", n)
	}
	pages := (n + p.pageSize - 1) / p.pageSize
	if p.capacity > 0 && p.inUse+pages > p.capacity {
		return nil, fmt.Errorf("membuf: off-heap exhausted: need %d pages, %d available", pages, p.capacity-p.inUse)
	}
	p.inUse += pages
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	p.allocs++
	p.nextIDs++
	id := p.nextIDs
	var data []byte
	if st := p.spare[n]; st != nil && len(*st) > 0 {
		k := len(*st) - 1
		data = (*st)[k]
		(*st)[k] = nil
		*st = (*st)[:k]
		p.spareTotal -= pages
		p.reused++
		clear(data)
	} else {
		// Cold start: freed spans recycle through the spare lists thereafter.
		data = make([]byte, n)
	}
	// The handle stays fresh so that a stale *HBuffer still sees its own
	// freed flag and a double free still panics; only the span recycles.
	// HBuffer handle: a small fixed-size header, never reused
	return &HBuffer{id: id, pool: p, data: data, size: n, pages: pages}, nil
}

// MustAllocate is Allocate panicking on failure.
func (p *Pool) MustAllocate(n int) *HBuffer {
	b, err := p.Allocate(n)
	if err != nil {
		panic(err)
	}
	return b
}

// Stats reports pool accounting.
type Stats struct {
	PageSize    int
	InUsePages  int
	PeakPages   int
	Allocs      int64
	Frees       int64
	PinnedPages int
	PinOps      int64
	// Reused counts allocations served from a freed span instead of the
	// Go heap; SparePages is the page count charged to the freed spans
	// the pool holds for reuse.
	Reused     int64
	SparePages int
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		PageSize:    p.pageSize,
		InUsePages:  p.inUse,
		PeakPages:   p.peak,
		Allocs:      p.allocs,
		Frees:       p.frees,
		PinnedPages: p.pinned,
		PinOps:      p.pinOps,
		Reused:      p.reused,
		SparePages:  p.spareTotal,
	}
}

// HBuffer is GFlink's direct buffer: raw off-heap bytes with page
// bookkeeping. The zero value is invalid; obtain HBuffers from a Pool.
type HBuffer struct {
	id    int64
	pool  *Pool
	data  []byte // exactly size bytes
	size  int
	pages int

	pinned bool
	freed  bool
}

// ID returns a pool-unique buffer identity (used as default cache key
// material).
func (b *HBuffer) ID() int64 { return b.id }

// Bytes returns the buffer's contents: its whole span, Size bytes long
// and no larger in capacity. A freed buffer's Bytes is nil.
func (b *HBuffer) Bytes() []byte { return b.data }

// Size returns the requested byte size.
func (b *HBuffer) Size() int { return b.size }

// Pages returns the number of pages backing the buffer.
func (b *HBuffer) Pages() int { return b.pages }

// Pin page-locks the buffer (cudaHostRegister), a prerequisite for
// asynchronous DMA. Pinning charges the per-page registration cost on
// the virtual clock. Pinning a pinned buffer is a no-op. Pin is
// PinCharge, a sleep for the charge, then PinPublish.
func (b *HBuffer) Pin() {
	d, ok := b.PinCharge()
	if !ok {
		return
	}
	b.pool.clock.Sleep(d)
	b.PinPublish()
}

// PinCharge is the first half of Pin: it returns the registration time
// to charge, and ok=false when the buffer is already pinned and Pin
// charges nothing. Pinning a freed buffer panics.
func (b *HBuffer) PinCharge() (d time.Duration, ok bool) {
	if b.freed {
		panic("membuf: Pin on freed HBuffer")
	}
	if b.pinned {
		return 0, false
	}
	return b.pool.model.Overheads.PinPage * time.Duration(b.pages), true
}

// PinPublish is the second half of Pin, once the charge has elapsed: it
// publishes the page lock. Other processes ran during the charge, so
// the buffer's state is checked again: a buffer freed meanwhile panics,
// and one pinned meanwhile stays pinned once.
func (b *HBuffer) PinPublish() {
	if b.freed {
		panic("membuf: Pin on freed HBuffer")
	}
	if !b.pinned {
		p := b.pool
		b.pinned = true
		p.pinned += b.pages
		p.pinOps++
	}
}

// Unpin releases the page lock.
func (b *HBuffer) Unpin() {
	if b.pinned {
		b.pinned = false
		b.pool.pinned -= b.pages
	}
}

// Pinned reports whether the buffer is page-locked.
func (b *HBuffer) Pinned() bool { return b.pinned }

// Free returns the pages to the pool, releasing any page lock first,
// and keeps the span for the next Allocate of the same size.
// Double frees panic: the paper's GMemoryManager owns buffer lifetime
// exactly once.
func (b *HBuffer) Free() {
	p := b.pool
	if b.freed {
		panic("membuf: double free of HBuffer")
	}
	b.freed = true
	if b.pinned {
		b.pinned = false
		p.pinned -= b.pages
	}
	p.inUse -= b.pages
	p.frees++
	if p.spare == nil {
		// Spare lists are created on first Free, so an idle pool costs nothing.
		p.spare = make(map[int]*[][]byte)
	}
	st := p.spare[b.size]
	if st == nil {
		// One spare list per distinct buffer size.
		st = new([][]byte)
		p.spare[b.size] = st
	}
	// Amortized spare-list growth, bounded by the most buffers of this size ever
	// live at once.
	*st = append(*st, b.data)
	p.spareTotal += b.pages
	b.data = nil
}

// Freed reports whether the buffer was released.
func (b *HBuffer) Freed() bool { return b.freed }

// ElemsPerPage returns how many elements of the given stride fit in one
// page under the no-straddling rule (Section 5.1: "the content of a
// GStruct can not be stored across pages").
func ElemsPerPage(pageSize, stride int) int {
	if stride <= 0 {
		return 0
	}
	return pageSize / stride
}
