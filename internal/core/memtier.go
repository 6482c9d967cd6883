package core

import (
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
)

// The host paging tier (DESIGN.md "Tiered memory", invariant 11).
//
// When WithHostTierBytes arms the tier, a victim's bytes are not lost
// on eviction: they demote over PCIe into a membuf-backed host page,
// spill onward to simulated disk when the host tier overflows, and
// promote back to the device when a later Acquire asks for the key.
// Every movement charges only simulated time — the real (scaled-down)
// bytes are copied verbatim at each hop, so a promoted buffer is
// bit-identical to the one that was evicted and output bytes never
// change (invariant 11). These functions sleep on the virtual clock, so
// none may be called in the middle of a cache-region update; each
// updates the tier's bookkeeping only between its sleeps, where no
// other process can run.

// hostPage is one demoted cache object. Resident pages hold their real
// bytes in an off-heap HBuffer from the host pool and sit on the
// manager's oldest-first resident list; spilled pages keep the bytes in
// a simulated on-disk blob from the disk pool and sit on the spilled
// list instead.
type hostPage struct {
	key     CacheKey
	nominal int64
	real    int             // real (scaled-down) byte length
	hbuf    *membuf.HBuffer // resident backing; nil when spilled or real == 0
	disk    *membuf.HBuffer // on-disk blob when spilled; nil otherwise or when real == 0
	spilled bool
	prev    *hostPage
	next    *hostPage
}

// pageList returns the ends of the list p belongs on: the spilled list
// for a spilled page, the resident list otherwise.
func (m *GMemoryManager) pageList(p *hostPage) (head, tail **hostPage) {
	if p.spilled {
		return &m.spillHead, &m.spillTail
	}
	return &m.hostHead, &m.hostTail
}

// pagePushBack appends p as the newest page of its list.
func (m *GMemoryManager) pagePushBack(p *hostPage) {
	head, tail := m.pageList(p)
	p.prev = *tail
	p.next = nil
	if *tail != nil {
		(*tail).next = p
	} else {
		*head = p
	}
	*tail = p
}

// pageUnlink removes p from its list.
func (m *GMemoryManager) pageUnlink(p *hostPage) {
	head, tail := m.pageList(p)
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		*head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		*tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// pageShell returns a zeroed hostPage shell from the free list.
func (m *GMemoryManager) pageShell() *hostPage {
	if n := len(m.freePages); n > 0 {
		p := m.freePages[n-1]
		m.freePages[n-1] = nil
		m.freePages = m.freePages[:n-1]
		return p
	}
	//gflink:allow-alloc page-shell cold start: shells recycle through the free list thereafter
	return &hostPage{}
}

// recyclePage releases a page's backing (host buffer or disk
// blob) and returns the shell to the free list.
func (m *GMemoryManager) recyclePage(p *hostPage) {
	if p.hbuf != nil {
		p.hbuf.Free()
	}
	if p.disk != nil {
		p.disk.Free()
	}
	*p = hostPage{}
	//gflink:allow-alloc amortized free-list growth, bounded by the peak page count
	m.freePages = append(m.freePages, p)
}

// takePage removes and returns the page cached under key, or nil. The
// caller (Acquire) promotes the page.
func (m *GMemoryManager) takePage(key CacheKey) *hostPage {
	pg, ok := m.hostPages[key]
	if !ok {
		return nil
	}
	delete(m.hostPages, key)
	m.pageUnlink(pg)
	if !pg.spilled {
		m.hostUsed -= pg.nominal
	}
	return pg
}

// settle demotes, in eviction order, a chain of entries evicted by
// Insert. Only reachable with the host tier enabled.
func (m *GMemoryManager) settle(e *cacheEntry) {
	for e != nil {
		next := e.next
		e.next = nil
		m.demote(e)
		e = next
	}
}

// demote moves an evicted entry's bytes from the device into the host
// tier: one D2H transfer through the pre-opened redirection channel
// (GFlinkTransferTime covers the JNI redirect and DMA setup), then the
// device buffer is freed. Overflowing the host tier spills the oldest
// resident pages to disk. The entry must already be detached from its
// region and unpinned.
//
//gflink:gated hosttier -- reachable only when the host paging tier is enabled; invariant 11 holds it to byte-preserving copies
func (m *GMemoryManager) demote(e *cacheEntry) {
	key, nominal := e.key, e.nominal
	t0 := m.clock.Now()
	m.clock.Sleep(m.model.PCIe.GFlinkTransferTime(nominal))
	src := e.buf.Bytes()
	var hb *membuf.HBuffer
	if len(src) > 0 {
		hb = m.hostPool.MustAllocate(len(src))
		//gflink:real-copy -- demotion preserves the victim's real bytes verbatim (invariant 11)
		copy(hb.Bytes(), src)
	}
	real := len(src)
	m.dev.Free(e.buf)
	m.cntDemotions.Add(1)
	if m.tracer.Enabled() {
		m.tracer.Record(m.memTrack, "mem", "demote", t0, m.clock.Now(), obs.Int("nominal", nominal))
	}

	// Overflow victims leave the resident list oldest first and chain
	// through their next fields until they are spilled.
	var spillHead, spillTail *hostPage
	m.recycleEntry(e)
	if old, ok := m.hostPages[key]; ok {
		// A stale copy of the same key: the block was re-inserted and
		// re-evicted while an earlier demotion or spill was in flight.
		// The bytes we carry are the newest.
		delete(m.hostPages, key)
		m.pageUnlink(old)
		if !old.spilled {
			m.hostUsed -= old.nominal
		}
		m.recyclePage(old)
	}
	pg := m.pageShell()
	pg.key, pg.nominal, pg.real, pg.hbuf = key, nominal, real, hb
	//gflink:allow-alloc page registration: the table grows only to the peak page count
	m.hostPages[key] = pg
	m.pagePushBack(pg)
	m.hostUsed += nominal
	for m.hostUsed > m.hostTierBytes && m.hostHead != nil {
		p := m.hostHead
		m.pageUnlink(p)
		delete(m.hostPages, p.key)
		m.hostUsed -= p.nominal
		if spillTail != nil {
			spillTail.next = p
		} else {
			spillHead = p
		}
		spillTail = p
	}
	for p := spillHead; p != nil; {
		next := p.next
		p.next = nil
		m.spill(p)
		p = next
	}
}

// spill writes one page to the simulated spill disk: its bytes move
// into a disk-pool blob and its host buffer is freed. The page has
// already left the tier's map and resident list; it re-enters the map
// as a spilled page once the disk write is charged.
//
//gflink:gated hosttier -- reachable only when the host paging tier is enabled; invariant 11 holds it to byte-preserving copies
func (m *GMemoryManager) spill(p *hostPage) {
	t0 := m.clock.Now()
	m.clock.Sleep(m.spillDisk.WriteTime(p.nominal))
	if p.hbuf != nil {
		p.disk = m.diskPool.MustAllocate(p.real)
		//gflink:real-copy -- the disk blob is a verbatim copy of the page's real bytes (invariant 11)
		copy(p.disk.Bytes(), p.hbuf.Bytes())
		p.hbuf.Free()
		p.hbuf = nil
	}
	p.spilled = true
	m.cntSpills.Add(1)
	if m.tracer.Enabled() {
		m.tracer.Record(m.memTrack, "mem", "spill", t0, m.clock.Now(), obs.Int("nominal", p.nominal))
	}
	if _, dup := m.hostPages[p.key]; dup {
		// A fresher copy of the key re-entered the tier while the disk
		// write was in flight; ours is stale.
		m.recyclePage(p)
	} else {
		//gflink:allow-alloc page registration: the table grows only to the peak page count
		m.hostPages[p.key] = p
		m.pagePushBack(p)
	}
}

// promote moves a page's bytes back onto the device: a disk read first
// when the page was spilled (counted as a reload), then one H2D
// transfer, then the buffer re-enters the region through Insert —
// pinned with one reference like any fresh insertion, so the caller
// must Release it. On failure (device exhausted even after Reclaim, or
// the region refuses the entry) the lookup degrades to a plain miss
// and the caller re-transfers as usual.
//
//gflink:gated hosttier -- reachable only when the host paging tier is enabled; invariant 11 holds it to byte-preserving copies
func (m *GMemoryManager) promote(key CacheKey, pg *hostPage) (*gpu.Buffer, bool) {
	t0 := m.clock.Now()
	reload := pg.spilled
	if reload {
		m.clock.Sleep(m.spillDisk.ReadTime(pg.nominal))
	}
	m.clock.Sleep(m.model.PCIe.GFlinkTransferTime(pg.nominal))
	buf, err := m.dev.Malloc(pg.nominal, pg.real)
	if err != nil {
		//gflink:allow-alloc device-pressure fallback: Reclaim demotes its victims, and runs only when the device is full
		m.Reclaim(pg.nominal)
		buf, err = m.dev.Malloc(pg.nominal, pg.real)
	}
	if err != nil {
		m.restorePage(pg)
		m.cntMisses.Add(1)
		return nil, false
	}
	if pg.hbuf != nil {
		//gflink:real-copy -- promotion restores the demoted real bytes verbatim (invariant 11)
		copy(buf.Bytes(), pg.hbuf.Bytes())
	} else if pg.disk != nil {
		//gflink:real-copy -- promotion restores the spilled real bytes verbatim (invariant 11)
		copy(buf.Bytes(), pg.disk.Bytes())
	}
	nominal := pg.nominal
	m.recyclePage(pg)
	if !m.Insert(key, buf, nominal) {
		// The region cannot take the entry back (stop policy, all
		// pinned, or a racing insert won); degrade to a miss.
		m.dev.Free(buf)
		m.cntMisses.Add(1)
		return nil, false
	}
	if reload {
		m.cntReloads.Add(1)
	}
	if m.tracer.Enabled() {
		name := "promote"
		if reload {
			name = "reload"
		}
		m.tracer.Record(m.memTrack, "mem", name, t0, m.clock.Now(), obs.Int("nominal", nominal))
	}
	m.cntPromotions.Add(1)
	return buf, true
}

// restorePage puts a page back into the tier after a failed promotion,
// charging nothing (the bytes never left the host).
func (m *GMemoryManager) restorePage(pg *hostPage) {
	if _, dup := m.hostPages[pg.key]; dup {
		m.recyclePage(pg)
	} else {
		//gflink:allow-alloc page registration: the table grows only to the peak page count
		m.hostPages[pg.key] = pg
		m.pagePushBack(pg)
		if !pg.spilled {
			m.hostUsed += pg.nominal
		}
	}
}

// jobPages returns the keys of a job's host-tier pages, resident then
// spilled, each in list order.
func (m *GMemoryManager) jobPages(jobID int) []CacheKey {
	keys := make([]CacheKey, 0, len(m.hostPages))
	for _, p := range [...]*hostPage{m.hostHead, m.spillHead} {
		for ; p != nil; p = p.next {
			if p.key.JobID == jobID {
				keys = append(keys, p.key)
			}
		}
	}
	return keys
}

// releaseJobPages drops every host-tier page and spilled blob a
// job owns, in key order. Called from ReleaseJob.
func (m *GMemoryManager) releaseJobPages(jobID int) {
	keys := m.jobPages(jobID)
	sortKeys(keys)
	for _, k := range keys {
		pg := m.hostPages[k]
		delete(m.hostPages, k)
		m.pageUnlink(pg)
		if !pg.spilled {
			m.hostUsed -= pg.nominal
		}
		m.recyclePage(pg)
	}
}
