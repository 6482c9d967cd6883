package core

import (
	"gflink/internal/gpu"
	"gflink/internal/obs"
)

// The host paging tier (DESIGN.md "Tiered memory", invariant 11).
//
// When WithHostTierBytes arms the tier, a victim is not lost on
// eviction: it demotes over PCIe into a host page, spills onward to
// simulated disk when the host tier overflows, and promotes back to the
// device when a later Acquire asks for the key. Every movement charges
// only simulated time: the page holds the evicted device buffer itself,
// detached, and promotion reattaches it, so no real byte moves and
// output bytes never change (invariant 11). These functions sleep on
// the virtual clock, so none may be called in the middle of a
// cache-region update; each updates the tier's bookkeeping only between
// its sleeps, where no other process can run.
//
// A page is the evicted cacheEntry itself, holding its detached buffer:
// resident pages sit on hostList oldest first, spilled pages on
// spillList.

// pageList returns the list p belongs on: the spilled list for a
// spilled page, the resident list otherwise.
func (m *GMemoryManager) pageList(p *cacheEntry) *entryList {
	if p.spilled {
		return &m.spillList
	}
	return &m.hostList
}

// recyclePage hands a dropped page's buffer back to the device's free
// list and recycles its shell.
func (m *GMemoryManager) recyclePage(p *cacheEntry) {
	if p.buf != nil {
		m.dev.Free(p.buf)
	}
	m.recycleEntry(p)
}

// takePage removes and returns the page cached under key, or nil. The
// caller promotes or recycles it.
func (m *GMemoryManager) takePage(key CacheKey) *cacheEntry {
	pg, ok := m.hostPages[key]
	if !ok {
		return nil
	}
	delete(m.hostPages, key)
	m.pageList(pg).unlink(pg)
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

// demote moves an evicted entry into the host tier: one D2H transfer
// through the pre-opened redirection channel (GFlinkTransferTime covers
// the JNI redirect and DMA setup), then its device buffer is detached
// and the entry itself becomes the page. Overflowing the host tier
// spills the oldest resident pages to disk. The entry must already be
// detached from its region and unpinned.
//
// Reachable only with the host paging tier enabled; it moves no bytes (invariant 11).
func (m *GMemoryManager) demote(e *cacheEntry) {
	key, nominal := e.key, e.nominal
	t0 := m.clock.Now()
	m.clock.Sleep(m.model.PCIe.GFlinkTransferTime(nominal))
	m.dev.Detach(e.buf)
	m.cntDemotions.Add(1)
	if m.tracer.Enabled() {
		m.tracer.Record(m.memTrack, "mem", "demote", t0, m.clock.Now(), obs.Int("nominal", nominal))
	}

	// Overflow victims leave the resident list oldest first and chain
	// through their next fields until they are spilled.
	var spillHead, spillTail *cacheEntry
	if old := m.takePage(key); old != nil {
		// A stale page of the same key: the block was re-inserted and
		// re-evicted while an earlier demotion or spill was in flight.
		// The buffer we carry is the newest.
		m.recyclePage(old)
	}
	// Page registration: the table grows only to the peak page count.
	m.hostPages[key] = e
	m.hostList.pushBack(e)
	m.hostUsed += nominal
	for m.hostUsed > m.hostTierBytes && m.hostList.head != nil {
		p := m.hostList.head
		m.hostList.unlink(p)
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

// spill writes one page to the simulated spill disk: it charges the
// disk write and relabels the page as spilled. The page has already
// left the tier's map and resident list; it re-enters the map as a
// spilled page once the disk write is charged.
//
// Reachable only with the host paging tier enabled; it moves no bytes (invariant 11).
func (m *GMemoryManager) spill(p *cacheEntry) {
	t0 := m.clock.Now()
	m.clock.Sleep(m.spillDisk.WriteTime(p.nominal))
	p.spilled = true
	m.cntSpills.Add(1)
	if m.tracer.Enabled() {
		m.tracer.Record(m.memTrack, "mem", "spill", t0, m.clock.Now(), obs.Int("nominal", p.nominal))
	}
	m.restorePage(p)
}

// promote moves a page back onto the device: a disk read first when
// the page was spilled (counted as a reload), then one H2D transfer,
// then the page's buffer is reattached, charged like a Malloc, and
// re-enters the region through Insert — pinned with one reference like
// any fresh insertion, so the caller must Release it. On failure
// (device exhausted even after Reclaim, or the region refuses the
// entry) the lookup degrades to a plain miss and the caller
// re-transfers as usual.
//
// Reachable only with the host paging tier enabled; it moves no bytes (invariant 11).
func (m *GMemoryManager) promote(key CacheKey, pg *cacheEntry) (*gpu.Buffer, bool) {
	t0 := m.clock.Now()
	reload := pg.spilled
	if reload {
		m.clock.Sleep(m.spillDisk.ReadTime(pg.nominal))
	}
	m.clock.Sleep(m.model.PCIe.GFlinkTransferTime(pg.nominal))
	buf := pg.buf
	err := m.dev.Reattach(buf)
	if err != nil {
		// Device-pressure fallback: Reclaim demotes its victims, and runs only
		// when the device is full.
		m.Reclaim(pg.nominal)
		err = m.dev.Reattach(buf)
	}
	if err != nil {
		m.restorePage(pg)
		m.cntMisses.Add(1)
		return nil, false
	}
	m.clock.Sleep(gpu.MallocOverhead)
	nominal := pg.nominal
	m.recycleEntry(pg)
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

// restorePage puts a page that left the tier back into it, charging
// nothing: a spilled page once its disk write is charged, or a page
// whose promotion failed. If a fresher page of the key entered the tier
// while this one was out, this one is stale and is recycled instead.
func (m *GMemoryManager) restorePage(pg *cacheEntry) {
	if _, dup := m.hostPages[pg.key]; dup {
		m.recyclePage(pg)
	} else {
		// Page registration: the table grows only to the peak page count.
		m.hostPages[pg.key] = pg
		m.pageList(pg).pushBack(pg)
		if !pg.spilled {
			m.hostUsed += pg.nominal
		}
	}
}

// jobPages returns the keys of a job's host-tier pages, resident then
// spilled, each in list order.
func (m *GMemoryManager) jobPages(jobID int) []CacheKey {
	keys := make([]CacheKey, 0, len(m.hostPages))
	for _, l := range [...]*entryList{&m.hostList, &m.spillList} {
		for p := l.head; p != nil; p = p.next {
			if p.key.JobID == jobID {
				keys = append(keys, p.key)
			}
		}
	}
	return keys
}

// releaseJobPages drops every host-tier page a job owns, resident or
// spilled, in key order, handing each buffer back to the device's free
// list. Called from ReleaseJob.
func (m *GMemoryManager) releaseJobPages(jobID int) {
	keys := m.jobPages(jobID)
	sortKeys(keys)
	for _, k := range keys {
		m.recyclePage(m.takePage(k))
	}
}
