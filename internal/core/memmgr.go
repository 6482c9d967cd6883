package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// CachePolicy selects the garbage-collection scheme of a cache region
// (Section 4.2.2 describes the first two; LRU belongs to the
// tiered-memory extension).
type CachePolicy int

const (
	// EvictFIFO evicts the oldest cached objects until a new one fits.
	EvictFIFO CachePolicy = iota
	// StopWhenFull refuses new insertions once the region is full —
	// "useful when the data needed to be cached in the GPUs in one
	// iteration is larger than that of the region".
	StopWhenFull
	// EvictLRU evicts the least-recently-used object; hits refresh an
	// entry's position, so hot blocks survive cyclic capacity pressure.
	EvictLRU
)

// String names the policy as experiments and tables render it.
func (p CachePolicy) String() string {
	switch p {
	case StopWhenFull:
		return "stop"
	case EvictLRU:
		return "lru"
	}
	return "fifo"
}

// GMemoryManager owns one device's memory on behalf of GFlink
// (Section 4.2): it allocates and releases buffers automatically around
// each GWork and maintains the per-job cache regions — a hash table of
// CacheKey to device buffer plus the eviction list its CachePolicy
// orders. With a host tier configured (WithHostTierBytes) it becomes
// the top of a three-level hierarchy: victims demote to host pages
// instead of being freed, pages spill onward to simulated disk when the
// host tier overflows, and a later Acquire promotes pages back at
// costmodel transfer cost instead of forcing the caller to re-transfer
// or recompute.
type GMemoryManager struct {
	dev     *gpu.Device
	wrapper *CUDAWrapper
	clock   *vclock.Clock
	model   costmodel.Model
	// policy orders eviction; EvictFIFO unless an option overrides it.
	policy CachePolicy
	// regionCap is the per-job cache-region capacity in nominal bytes
	// (the user-defined parameter of Section 4.2.2).
	regionCap int64
	// metrics receives the cache counters ("cache.<event>.gpu<ID>") and
	// tier counters ("mem.<event>.gpu<ID>"); nil until observe wires a
	// registry. The counter handles are preregistered per device so
	// hot-path cache events neither concatenate strings nor hash a
	// counter name; their names come from obs's closed Kind table.
	metrics      *obs.Registry
	cntHits      *obs.Counter
	cntMisses    *obs.Counter
	cntInserts   *obs.Counter
	cntRejects   *obs.Counter
	cntStop      *obs.Counter
	cntEvictions *obs.Counter

	// Tier observability: demotion/promotion/spill/reload spans land on
	// the per-device mem track; tracer is nil until observe wires one.
	tracer        *obs.Tracer
	memTrack      string
	cntDemotions  *obs.Counter
	cntPromotions *obs.Counter
	cntSpills     *obs.Counter
	cntReloads    *obs.Counter

	// hostTierBytes caps the host paging tier in nominal bytes; 0
	// disables the tier entirely and victims are freed as before.
	hostTierBytes int64
	// spillDisk is the simulated device host pages spill to when the
	// tier overflows.
	spillDisk costmodel.Disk

	regions map[int]*cacheRegion // by job ID
	// jobs holds the regions' job IDs, ascending: the order Reclaim
	// scans the regions in.
	jobs []int
	// freeEntries recycles cacheEntry shells (which double as eviction
	// list nodes) so steady-state insert-after-evict allocates nothing.
	freeEntries []*cacheEntry
	// pendHead/pendTail chain, through their next fields, the entries
	// evicted by Insert whose demotion (which charges simulated time and
	// therefore must not run inside Insert's mutation of the region) is
	// still owed; takePending hands the chain to settle once the region
	// is consistent again.
	pendHead, pendTail *cacheEntry

	// Host tier state: the pages by key. hostList orders the resident
	// pages oldest-first for spilling; spilled pages move to spillList.
	hostPages           map[CacheKey]*cacheEntry
	hostList, spillList entryList
	hostUsed            int64
}

type cacheRegion struct {
	capacity int64
	used     int64
	entries  map[CacheKey]*cacheEntry
	// The intrusive eviction list the region's policy orders (oldest
	// candidate first). Entries are their own nodes, so eviction
	// bookkeeping rides the manager's shell free list.
	entryList
}

// cacheEntry is one cached block. A demoted entry is a host-tier page:
// it keeps its key, nominal size and buffer, detached from the device.
type cacheEntry struct {
	key     CacheKey
	buf     *gpu.Buffer
	nominal int64
	refs    int  // in-flight kernels using the entry; evictable at 0
	spilled bool // a host-tier page on the spilled list
	prev    *cacheEntry
	next    *cacheEntry
}

// MemOption configures optional behaviour of a memory manager.
type MemOption func(*GMemoryManager)

// WithPolicy selects the eviction policy.
func WithPolicy(p CachePolicy) MemOption {
	return func(m *GMemoryManager) { m.policy = p }
}

// WithHostTierBytes enables the host paging tier, capped at n nominal
// bytes: evicted cache entries demote their bytes to host pages instead
// of being freed, and Acquire promotes them back at H2D transfer cost.
func WithHostTierBytes(n int64) MemOption {
	return func(m *GMemoryManager) { m.hostTierBytes = n }
}

// NewMemoryManager builds the manager for one device. Without options
// it reproduces the paper's configuration: FIFO eviction, no host
// tier.
func NewMemoryManager(dev *gpu.Device, wrapper *CUDAWrapper, regionCap int64, opts ...MemOption) *GMemoryManager {
	m := &GMemoryManager{
		dev:       dev,
		wrapper:   wrapper,
		clock:     wrapper.clock,
		model:     wrapper.model,
		regionCap: regionCap,
		memTrack:  fmt.Sprintf("gpu%d/mem", dev.ID),
		spillDisk: costmodel.DefaultSpillDisk,
		regions:   make(map[int]*cacheRegion),
	}
	for _, o := range opts {
		o(m)
	}
	if m.hostTierBytes > 0 {
		m.hostPages = make(map[CacheKey]*cacheEntry)
	}
	return m
}

// observe directs the cache and tier counters to r and the tier spans
// to tr (wired by NewStreamManager, which shares one registry and
// tracer across a worker's devices).
func (m *GMemoryManager) observe(r *obs.Registry, tr *obs.Tracer) {
	m.metrics = r
	m.tracer = tr
	id := m.dev.ID
	m.cntHits = r.Counter(obs.CacheHits, id)
	m.cntMisses = r.Counter(obs.CacheMisses, id)
	m.cntInserts = r.Counter(obs.CacheInserts, id)
	m.cntRejects = r.Counter(obs.CacheRejects, id)
	m.cntStop = r.Counter(obs.CacheStop, id)
	m.cntEvictions = r.Counter(obs.CacheEvictions, id)
	m.cntDemotions = r.Counter(obs.MemDemotions, id)
	m.cntPromotions = r.Counter(obs.MemPromotions, id)
	m.cntSpills = r.Counter(obs.MemSpills, id)
	m.cntReloads = r.Counter(obs.MemReloads, id)
}

// Device returns the managed device.
func (m *GMemoryManager) Device() *gpu.Device { return m.dev }

// RegionCap returns the per-job cache-region capacity.
func (m *GMemoryManager) RegionCap() int64 { return m.regionCap }

// HostTierBytes returns the host paging tier's capacity (0 when the
// tier is disabled).
func (m *GMemoryManager) HostTierBytes() int64 { return m.hostTierBytes }

// region returns the job's cache region, allocating it lazily ("the
// cache region of a specific job is allocated when the job starts").
func (m *GMemoryManager) region(jobID int) *cacheRegion {
	r, ok := m.regions[jobID]
	if !ok {
		r = &cacheRegion{capacity: m.regionCap, entries: make(map[CacheKey]*cacheEntry)}
		m.regions[jobID], m.jobs = r, slices.Insert(m.jobs, sort.SearchInts(m.jobs, jobID), jobID)
	}
	return r
}

// Acquire looks up key and, when present, pins the entry against
// eviction and returns its device buffer. With the host tier enabled a
// device miss falls through to the page pool: a resident (or spilled)
// page is promoted back to the device at simulated transfer (and disk)
// cost and returned pinned, like a hit. Callers must pair a hit with
// Release.
func (m *GMemoryManager) Acquire(key CacheKey) (*gpu.Buffer, bool) {
	r := m.region(key.JobID)
	if e, ok := r.entries[key]; ok {
		e.refs++
		if m.policy == EvictLRU {
			r.unlink(e)
			r.pushBack(e)
		}
		m.cntHits.Add(1)
		return e.buf, true
	}
	if m.hostTierBytes > 0 {
		if pg := m.takePage(key); pg != nil {
			return m.promote(key, pg)
		}
	}
	m.cntMisses.Add(1)
	return nil, false
}

// Release unpins a previously acquired entry.
func (m *GMemoryManager) Release(key CacheKey) {
	r := m.region(key.JobID)
	if e, ok := r.entries[key]; ok && e.refs > 0 {
		e.refs--
	}
}

// Insert caches buf under key, evicting per the region policy. It
// returns false (and leaves buf owned by the caller) when the region
// cannot hold the object; on success the region owns buf. The new entry
// starts pinned with one reference, matching the in-flight kernel that
// triggered the transfer; the caller must Release it. With the host
// tier enabled, victims demote to host pages once the new entry is in
// place — demotion charges simulated time, so it never runs in the
// middle of the region update, where another process could observe it
// half done.
func (m *GMemoryManager) Insert(key CacheKey, buf *gpu.Buffer, nominal int64) bool {
	r := m.region(key.JobID)
	if _, dup := r.entries[key]; dup {
		m.cntRejects.Add(1)
		return false
	}
	if nominal > r.capacity {
		m.cntRejects.Add(1)
		return false
	}
	for r.used+nominal > r.capacity {
		if m.policy == StopWhenFull {
			m.cntStop.Add(1)
			return false
		}
		v := oldestUnpinned(r)
		if v == nil {
			m.cntRejects.Add(1)
			// Everything left is pinned. The victims taken so far stay
			// evicted, so their demotions are owed all the same.
			if pend := m.takePending(); pend != nil {
				m.settle(pend)
			}
			return false
		}
		m.evict(r, v)
	}
	e := m.entryShell()
	e.key, e.buf, e.nominal, e.refs = key, buf, nominal, 1
	r.pushBack(e)
	r.entries[key] = e
	r.used += nominal
	m.cntInserts.Add(1)
	if pend := m.takePending(); pend != nil {
		m.settle(pend)
	}
	return true
}

// evict detaches a chosen victim from its region and either frees its
// device buffer (no host tier) or chains it onto the pending demotions
// for once the caller's region update is complete.
func (m *GMemoryManager) evict(r *cacheRegion, e *cacheEntry) {
	r.unlink(e)
	delete(r.entries, e.key)
	r.used -= e.nominal
	if m.hostTierBytes > 0 {
		// Remove took e off the region's list, so its next field is free
		// to chain the pending demotions.
		e.next = nil
		if m.pendTail != nil {
			m.pendTail.next = e
		} else {
			m.pendHead = e
		}
		m.pendTail = e
		m.cntEvictions.Add(1)
		return
	}
	m.dev.Free(e.buf)
	m.cntEvictions.Add(1)
	m.recycleEntry(e)
}

// entryShell returns a zeroed cacheEntry shell from the free list.
func (m *GMemoryManager) entryShell() *cacheEntry {
	if n := len(m.freeEntries); n > 0 {
		e := m.freeEntries[n-1]
		m.freeEntries[n-1] = nil
		m.freeEntries = m.freeEntries[:n-1]
		return e
	}
	return &cacheEntry{}
}

// recycleEntry zeroes a shell and returns it to the free list.
func (m *GMemoryManager) recycleEntry(e *cacheEntry) {
	*e = cacheEntry{}
	// Amortized free-list growth, bounded by the peak entry count.
	m.freeEntries = append(m.freeEntries, e)
}

// takePending hands the chain of owed demotions (nil if none) to the
// caller, which must run settle on it once its region update is
// complete.
func (m *GMemoryManager) takePending() *cacheEntry {
	e := m.pendHead
	m.pendHead, m.pendTail = nil, nil
	return e
}

// CachedBytes sums the nominal sizes of the given keys present in this
// device's regions — the quantity Algorithm 5.1 maximizes when picking
// a GPU. Host-tier pages do not count: locality means device-resident.
func (m *GMemoryManager) CachedBytes(keys []CacheKey) int64 {
	var n int64
	for _, k := range keys {
		if r, ok := m.regions[k.JobID]; ok {
			if e, ok := r.entries[k]; ok {
				n += e.nominal
			}
		}
	}
	return n
}

// HostPages reports the number of host-tier pages (resident plus
// spilled) held for a job.
func (m *GMemoryManager) HostPages(jobID int) int {
	return len(m.jobPages(jobID))
}

// Reclaim evicts unpinned cache entries (policy order, across regions
// in job order) until the device has at least need bytes free or
// nothing more can be evicted — the automatic-management behaviour that
// lets transient GWork allocations proceed under cache pressure.
// Memory pressure overrides StopWhenFull: the policy's victim is freed
// even though the policy forbids evict-to-admit. Pinned entries
// (refs > 0) are never victims, never demoted, never spilled. With the
// host tier enabled each victim demotes (charging simulated time) once
// it has left its region.
func (m *GMemoryManager) Reclaim(need int64) {
	for m.dev.FreeBytes() < need {
		var region *cacheRegion
		var victim *cacheEntry
		for _, id := range m.jobs {
			region = m.regions[id]
			if victim = oldestUnpinned(region); victim != nil {
				break
			}
		}
		if victim == nil {
			return
		}
		m.evict(region, victim)
		if pend := m.takePending(); pend != nil {
			m.settle(pend)
		}
	}
}

// ReleaseJob frees a job's whole cache region ("it is released when the
// job finishes") along with any host-tier pages, resident or spilled,
// the job demoted. Releasing with in-flight references panics: the job
// cannot finish while its work is still running.
func (m *GMemoryManager) ReleaseJob(jobID int) {
	if r, ok := m.regions[jobID]; ok {
		keys := make([]CacheKey, 0, len(r.entries))
		for e := r.head; e != nil; e = e.next {
			keys = append(keys, e.key)
		}
		sortKeys(keys)
		for _, key := range keys {
			e := r.entries[key]
			if e.refs > 0 {
				panic(fmt.Sprintf("core: ReleaseJob(%d) with pinned cache entry %+v", jobID, key))
			}
			m.dev.Free(e.buf)
			r.unlink(e)
			m.recycleEntry(e)
		}
		delete(m.regions, jobID)
		i := sort.SearchInts(m.jobs, jobID)
		m.jobs = slices.Delete(m.jobs, i, i+1)
	}
	m.releaseJobPages(jobID)
}

// sortKeys orders one job's keys totally, by partition, block and
// column set, so a free order never depends on how they were gathered.
func sortKeys(keys []CacheKey) {
	slices.SortFunc(keys, func(a, b CacheKey) int {
		return cmp.Or(cmp.Compare(a.Partition, b.Partition), cmp.Compare(a.Block, b.Block), cmp.Compare(a.Cols, b.Cols))
	})
}
