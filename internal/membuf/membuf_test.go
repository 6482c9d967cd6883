package membuf

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

func newPool(cfg Config) (*vclock.Clock, *Pool) {
	c := vclock.New()
	return c, NewPool(c, costmodel.Default(), cfg)
}

func TestAllocateRoundsToPages(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	c.Run(func() {
		b := p.MustAllocate(1)
		if b.Pages() != 1 || len(b.Bytes()) != 1 || cap(b.Bytes()) != 1 || b.Size() != 1 {
			t.Errorf("1-byte alloc: pages=%d len=%d cap=%d size=%d", b.Pages(), len(b.Bytes()), cap(b.Bytes()), b.Size())
		}
		b2 := p.MustAllocate(1025)
		if b2.Pages() != 2 || len(b2.Bytes()) != 1025 || cap(b2.Bytes()) != 1025 || b2.Size() != 1025 {
			t.Errorf("1025-byte alloc: pages=%d len=%d cap=%d size=%d, want 2 pages and 1025 bytes",
				b2.Pages(), len(b2.Bytes()), cap(b2.Bytes()), b2.Size())
		}
		b.Free()
		b2.Free()
	})
	s := p.Stats()
	if s.InUsePages != 0 || s.Allocs != 2 || s.Frees != 2 || s.PeakPages != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024, CapacityPages: 2})
	c.Run(func() {
		b := p.MustAllocate(2048)
		if _, err := p.Allocate(1); err == nil {
			t.Error("allocation beyond capacity succeeded")
		}
		b.Free()
		if _, err := p.Allocate(1); err != nil {
			t.Errorf("allocation after free failed: %v", err)
		}
	})
}

func TestInvalidAllocate(t *testing.T) {
	c, p := newPool(Config{})
	c.Run(func() {
		if _, err := p.Allocate(0); err == nil {
			t.Error("zero-byte allocation succeeded")
		}
		if _, err := p.Allocate(-5); err == nil {
			t.Error("negative allocation succeeded")
		}
	})
}

func TestPinChargesTimeAndTracksPages(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	m := costmodel.Default()
	end := c.Run(func() {
		b := p.MustAllocate(3 * 1024)
		b.Pin()
		if !b.Pinned() {
			t.Error("not pinned after Pin")
		}
		if got := p.Stats().PinnedPages; got != 3 {
			t.Errorf("pinned pages = %d, want 3", got)
		}
		b.Pin() // idempotent, no extra charge
		b.Unpin()
		if b.Pinned() || p.Stats().PinnedPages != 0 {
			t.Error("unpin did not release")
		}
		b.Free()
	})
	if want := 3 * m.Overheads.PinPage; end != want {
		t.Errorf("pin cost %v, want %v", end, want)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	c, p := newPool(Config{})
	c.Run(func() {
		b := p.MustAllocate(10)
		b.Free()
		b.Free()
	})
}

// A freed span comes back for the next allocation of the same size,
// zeroed, under a new buffer ID; an allocation of another size does not
// take it, not even one of the same page count.
func TestFreedSpanIsReusedZeroed(t *testing.T) {
	_, p := newPool(Config{PageSize: 256})
	b := p.MustAllocate(300)
	span := b.Bytes()
	for i := range span {
		span[i] = 0xAB
	}
	id := b.ID()
	b.Free()
	if s := p.Stats(); s.SparePages != 2 || s.Reused != 0 {
		t.Fatalf("after free: %+v, want 2 spare pages and no reuse", s)
	}
	one := p.MustAllocate(10)
	if s := p.Stats(); s.Reused != 0 || s.SparePages != 2 {
		t.Errorf("1-page allocation took the 2-page span: %+v", s)
	}
	other := p.MustAllocate(512)
	if s := p.Stats(); s.Reused != 0 || s.SparePages != 2 {
		t.Errorf("512-byte allocation took the 300-byte span: %+v", s)
	}
	again := p.MustAllocate(300)
	if s := p.Stats(); s.Reused != 1 || s.SparePages != 0 {
		t.Errorf("300-byte allocation did not reuse the span: %+v", s)
	}
	if &again.Bytes()[0] != &span[0] {
		t.Error("300-byte allocation got a fresh span, not the freed one")
	}
	if again.ID() == id {
		t.Error("a reused span kept the freed buffer's ID")
	}
	for i, v := range again.Bytes() {
		if v != 0 {
			t.Fatalf("reused span byte %d = %#x, want 0", i, v)
		}
	}
	one.Free()
	other.Free()
	again.Free()
}

// A buffer much smaller than a page is backed by its own bytes, not a
// whole page, while the pool still counts and pins it as one page.
func TestSubPageBufferAllocatesItsBytes(t *testing.T) {
	const n, size = 64, 840
	_, p := newPool(Config{PageSize: 32 * 1024})
	bufs := make([]*HBuffer, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		bufs = append(bufs, p.MustAllocate(size))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*2*1024 {
		t.Errorf("%d live %d-byte buffers allocated %d bytes, want under %d", n, size, got, n*2*1024)
	}
	if s := p.Stats(); s.InUsePages != n {
		t.Errorf("in-use pages = %d, want %d", s.InUsePages, n)
	}
	pin := costmodel.Default().Overheads.PinPage
	for _, b := range bufs {
		if d, ok := b.PinCharge(); !ok || d != pin {
			t.Fatalf("PinCharge = %v, %v; want one page's %v", d, ok, pin)
		}
	}
	for _, b := range bufs {
		b.Free()
	}
}

// The handle of a freed buffer never aliases the recycled span: its
// views are gone and a second Free still panics after the span has
// gone to another buffer.
func TestStaleHandleAfterReuse(t *testing.T) {
	_, p := newPool(Config{PageSize: 256})
	b := p.MustAllocate(64)
	b.Free()
	next := p.MustAllocate(64)
	if b.data != nil || b.Bytes() != nil {
		t.Error("a freed handle still exposes its span")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double free of a handle whose span was reused did not panic")
			}
		}()
		b.Free()
	}()
	if next.Freed() {
		t.Error("double free of the stale handle freed the span's new owner")
	}
	next.Free()
}

// A steady Allocate/Free cycle allocates only the HBuffer handle: the
// page span comes off the pool's spare list.
func TestSteadyAllocateFreeReusesSpan(t *testing.T) {
	_, p := newPool(Config{})
	p.MustAllocate(DefaultPageSize).Free()
	allocs := testing.AllocsPerRun(100, func() {
		p.MustAllocate(DefaultPageSize).Free()
	})
	if allocs != 1 {
		t.Errorf("Allocate+Free = %v allocs, want 1 (the handle)", allocs)
	}
	if s := p.Stats(); s.Reused != s.Allocs-1 {
		t.Errorf("reused %d of %d allocations, want all but the first", s.Reused, s.Allocs)
	}
}

// BenchmarkAllocateFree times one Allocate and Free against a warm pool,
// the cycle a GWork output buffer or a host-tier page goes through:
// page-sized, and sub-page (a kmeans partial-sum output). The cold case
// gives every buffer a fresh pool, so its B/op is the span's size plus
// the pool's own bookkeeping.
func BenchmarkAllocateFree(b *testing.B) {
	for _, size := range []int{DefaultPageSize, 840} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			_, p := newPool(Config{})
			p.MustAllocate(size).Free()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.MustAllocate(size).Free()
			}
		})
	}
	b.Run("size=840/cold", func(b *testing.B) {
		c, m := vclock.New(), costmodel.Default()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewPool(c, m, Config{}).MustAllocate(840).Free()
		}
	})
}

func TestFreeUnpins(t *testing.T) {
	c, p := newPool(Config{PageSize: 512})
	c.Run(func() {
		b := p.MustAllocate(512)
		b.Pin()
		b.Free()
	})
	if p.Stats().PinnedPages != 0 {
		t.Error("Free left pages pinned")
	}
}

func TestElemsPerPage(t *testing.T) {
	if got := ElemsPerPage(32768, 24); got != 1365 {
		t.Errorf("ElemsPerPage(32768,24) = %d, want 1365", got)
	}
	if ElemsPerPage(100, 0) != 0 || ElemsPerPage(100, -1) != 0 {
		t.Error("non-positive stride must give 0")
	}
	if ElemsPerPage(10, 24) != 0 {
		t.Error("oversized stride must give 0")
	}
}

// Property: pool accounting balances — after freeing everything, in-use
// is zero and peak equals the maximum simultaneous pages. Freeing some
// buffers and re-allocating their sizes reuses every freed span, so the
// pool's pages (in use plus spare) stay at the peak.
func TestPoolAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		c, p := newPool(Config{PageSize: 256})
		ok := true
		c.Run(func() {
			var bufs []*HBuffer
			total := 0
			peak := 0
			for _, s := range sizes {
				n := int(s%4096) + 1
				b := p.MustAllocate(n)
				bufs = append(bufs, b)
				total += b.Pages()
				if total > peak {
					peak = total
				}
			}
			st := p.Stats()
			if st.InUsePages != total || st.PeakPages != peak {
				ok = false
			}
			// Free half, then allocate the same sizes again: every
			// re-allocation reuses a span, and the pool never holds more
			// than its peak.
			half := bufs[:len(bufs)/2]
			for _, b := range half {
				b.Free()
			}
			for i, b := range half {
				half[i] = p.MustAllocate(b.Size())
			}
			st = p.Stats()
			if st.Reused != int64(len(half)) || st.InUsePages+st.SparePages > st.PeakPages || st.PeakPages != peak {
				ok = false
			}
			for _, b := range bufs {
				b.Free()
			}
			if st := p.Stats(); st.InUsePages != 0 || st.SparePages != st.PeakPages {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Buffers are shared across stream workers, so the lifecycle flags must
// be synchronized: this test hammers Pin/Unpin/Pinned/Freed from
// concurrent vclock processes and relies on `go test -race` to catch
// unguarded access to HBuffer.pinned/HBuffer.freed.
func TestConcurrentLifecycleFlagAccess(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	c.Run(func() {
		b := p.MustAllocate(4 * 1024)
		g := vclock.NewGroup(c)
		for i := 0; i < 4; i++ {
			g.Go("worker", func() {
				for j := 0; j < 50; j++ {
					b.Pin()
					_ = b.Pinned()
					_ = b.Freed()
					b.Unpin()
					c.Sleep(1)
				}
			})
		}
		g.Wait()
		b.Free()
		if !b.Freed() || b.Pinned() {
			t.Error("flags inconsistent after free")
		}
	})
	if s := p.Stats(); s.InUsePages != 0 || s.PinnedPages != 0 {
		t.Errorf("pool not drained: %+v", s)
	}
}

// Property: distinct live buffers never share an ID.
func TestBufferIDUniqueness(t *testing.T) {
	c, p := newPool(Config{})
	c.Run(func() {
		seen := map[int64]bool{}
		for i := 0; i < 100; i++ {
			b := p.MustAllocate(8)
			if seen[b.ID()] {
				t.Fatalf("duplicate buffer id %d", b.ID())
			}
			seen[b.ID()] = true
		}
	})
}

// FuzzPoolSpansZeroed runs random Allocate, write and Free sequences
// over buffers of one to four pages and checks, after every Allocate,
// that the new buffer's whole span is zero and exactly Size bytes, and
// that Bytes is that span. Writes go through Bytes, from a random
// offset or over the whole span.
func FuzzPoolSpansZeroed(f *testing.F) {
	// Allocate 301 bytes, write its whole span, free it, and allocate
	// 301 bytes again on the recycled span.
	f.Add([]byte{0, 0x2c, 0x01, 2, 0, 0x11, 3, 0, 0, 0x2c, 0x01})
	// The same from an offset, then an allocation of another size.
	f.Add([]byte{0, 0xff, 0x03, 1, 0, 0x40, 0x77, 3, 0, 0, 0x00, 0x03, 0, 0x10, 0x00})
	// Mixed sizes, writes and frees.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0x7f, 2, 0, 0x55, 3, 1, 3, 0, 0, 5, 0, 0, 6, 0})
	const pageSize = 256
	f.Fuzz(func(t *testing.T, ops []byte) {
		_, p := newPool(Config{PageSize: pageSize})
		var live []*HBuffer
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			switch op := next(); op % 4 {
			case 0:
				n := 1 + (next()|next()<<8)%(4*pageSize)
				b := p.MustAllocate(n)
				if len(b.data) != b.Size() || cap(b.data) != b.Size() || b.Size() != n {
					t.Fatalf("Allocate(%d): span len %d cap %d, Size() %d; want all %d", n, len(b.data), cap(b.data), b.Size(), n)
				}
				if bs := b.Bytes(); len(bs) != len(b.data) || cap(bs) != cap(b.data) || &bs[0] != &b.data[0] {
					t.Fatalf("Allocate(%d): Bytes() is not the buffer's span", n)
				}
				if want := (n + pageSize - 1) / pageSize; b.Pages() != want {
					t.Fatalf("Allocate(%d): %d pages, want %d", n, b.Pages(), want)
				}
				for i, v := range b.data {
					if v != 0 {
						t.Fatalf("Allocate(%d) (reused %d): span byte %d = %#x, want 0", n, p.Stats().Reused, i, v)
					}
				}
				if len(live) < 8 {
					live = append(live, b)
				} else {
					b.Free()
				}
			case 1, 2:
				if len(live) == 0 {
					continue
				}
				b := live[next()%len(live)]
				buf := b.Bytes()
				from := 0
				if op%4 == 1 {
					from = next() % len(buf)
				}
				val := byte(next() | 1)
				for i := from; i < len(buf); i++ {
					buf[i] = val
				}
			case 3:
				if len(live) == 0 {
					continue
				}
				k := next() % len(live)
				live[k].Free()
				live = append(live[:k], live[k+1:]...)
			}
		}
		for _, b := range live {
			b.Free()
		}
	})
}

// TestPinSplitMatchesPin holds the split form a stream worker's step
// uses — PinCharge, a sleep for the charge, PinPublish — to Pin: the
// same charge and pool counters, no charge for a pinned buffer, and the
// same panic for a buffer freed during the charge or before it.
func TestPinSplitMatchesPin(t *testing.T) {
	type outcome struct {
		end   string
		stats Stats
		panic string
	}
	pin := func(c *vclock.Clock, b *HBuffer, split bool) {
		if !split {
			b.Pin()
			return
		}
		if d, ok := b.PinCharge(); ok {
			c.Sleep(d)
			b.PinPublish()
		}
	}
	for _, tc := range []struct {
		name     string
		scenario func(c *vclock.Clock, p *Pool, split bool)
	}{
		{"pin-twice", func(c *vclock.Clock, p *Pool, split bool) {
			b := p.MustAllocate(3 * 1024)
			pin(c, b, split)
			pin(c, b, split)
			b.Free()
		}},
		{"freed-during-charge", func(c *vclock.Clock, p *Pool, split bool) {
			b := p.MustAllocate(2 * 1024)
			c.Go("freer", func() { b.Free() })
			pin(c, b, split)
		}},
		{"freed-before", func(c *vclock.Clock, p *Pool, split bool) {
			b := p.MustAllocate(1024)
			b.Free()
			pin(c, b, split)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(split bool) (out outcome) {
				c, p := newPool(Config{PageSize: 1024})
				defer func() {
					if r := recover(); r != nil {
						out.panic = fmt.Sprint(r)
					}
					out.stats = p.Stats()
				}()
				out.end = c.Run(func() { tc.scenario(c, p, split) }).String()
				return out
			}
			whole, split := run(false), run(true)
			if whole != split {
				t.Fatalf("split pin = %+v, want Pin's %+v", split, whole)
			}
			if freed := tc.name != "pin-twice"; freed != strings.Contains(whole.panic, "membuf: Pin on freed HBuffer") {
				t.Fatalf("Pin panicked with %q", whole.panic)
			}
		})
	}
	c, p := newPool(Config{PageSize: 1024})
	c.Run(func() {
		b := p.MustAllocate(3 * 1024)
		if d, ok := b.PinCharge(); !ok || d != 3*costmodel.Default().Overheads.PinPage {
			t.Errorf("PinCharge of an unpinned 3-page buffer = %v, %v; want 3 pages' charge", d, ok)
		}
		b.Pin()
		if d, ok := b.PinCharge(); ok || d != 0 {
			t.Errorf("PinCharge of a pinned buffer = %v, %v; want none", d, ok)
		}
		b.Free()
	})
}
