package core

// EvictionPolicy decides which cached entries a region gives up under
// capacity pressure. The GMemoryManager owns all side effects (freeing
// or demoting the victim's device buffer, counters): a policy only
// maintains ordering metadata on the region's intrusive eviction list
// and answers victim queries. Every method runs inside one of the
// manager's region updates, which make no blocking call, so no other
// process observes the list half changed.
//
// The three implementations cover the paper's two schemes (Section
// 4.2.2: FIFO eviction and stop-when-full) plus the tiered subsystem's
// LRU policy.
type EvictionPolicy interface {
	// Name identifies the policy in tables and experiment output.
	Name() string
	// Admit records a newly inserted entry in the policy's bookkeeping.
	Admit(r *cacheRegion, e *cacheEntry)
	// Touch records a cache hit on a resident entry.
	Touch(r *cacheRegion, e *cacheEntry)
	// Victim returns the entry the policy would evict next (nil when
	// every entry is pinned) and whether the policy forbids evicting to
	// admit a new object (StopWhenFull). Memory-pressure reclaim ignores
	// stop and frees the victim regardless, matching the pre-refactor
	// behaviour where stop-when-full only guards insertion.
	Victim(r *cacheRegion) (e *cacheEntry, stop bool)
	// Remove drops an entry from the policy's bookkeeping, either
	// because it was evicted or because its job's region is released.
	Remove(r *cacheRegion, e *cacheEntry)
}

// policyFor maps the CachePolicy enum to its implementation.
func policyFor(p CachePolicy) EvictionPolicy {
	switch p {
	case StopWhenFull:
		return stopPolicy{}
	case EvictLRU:
		return lruPolicy{}
	default:
		return fifoPolicy{}
	}
}

// The intrusive eviction list: entries double as list nodes (prev/next
// fields), so policy bookkeeping allocates nothing — entry shells ride
// the manager's free list and the list operations below are pure
// pointer swaps, keeping the hit path hotalloc-clean (invariant 10).

// pushBack appends e as the newest entry of r's eviction list.
//
//gflink:hotpath
func (r *cacheRegion) pushBack(e *cacheEntry) {
	e.prev = r.tail
	e.next = nil
	if r.tail != nil {
		r.tail.next = e
	} else {
		r.head = e
	}
	r.tail = e
}

// unlink removes e from r's eviction list.
//
//gflink:hotpath
func (r *cacheRegion) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// oldestUnpinned walks the eviction list front to back and returns the
// first entry with no in-flight references — the shared victim scan of
// the FIFO-ordered policies.
//
//gflink:hotpath
func oldestUnpinned(r *cacheRegion) *cacheEntry {
	for e := r.head; e != nil; e = e.next {
		if e.refs == 0 {
			return e
		}
	}
	return nil
}

// fifoPolicy evicts the oldest cached objects until a new one fits —
// the paper's default garbage-collection scheme.
type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "fifo" }

//gflink:hotpath
func (fifoPolicy) Admit(r *cacheRegion, e *cacheEntry) { r.pushBack(e) }

//gflink:hotpath
func (fifoPolicy) Touch(r *cacheRegion, e *cacheEntry) {}

//gflink:hotpath
func (fifoPolicy) Victim(r *cacheRegion) (*cacheEntry, bool) { return oldestUnpinned(r), false }

//gflink:hotpath
func (fifoPolicy) Remove(r *cacheRegion, e *cacheEntry) { r.unlink(e) }

// stopPolicy refuses new insertions once the region is full — "useful
// when the data needed to be cached in the GPUs in one iteration is
// larger than that of the region". Its victim scan still works (FIFO
// order) so memory-pressure reclaim can free entries; only
// evict-to-admit is forbidden, signalled by stop=true.
type stopPolicy struct{}

func (stopPolicy) Name() string { return "stop" }

//gflink:hotpath
func (stopPolicy) Admit(r *cacheRegion, e *cacheEntry) { r.pushBack(e) }

//gflink:hotpath
func (stopPolicy) Touch(r *cacheRegion, e *cacheEntry) {}

//gflink:hotpath
func (stopPolicy) Victim(r *cacheRegion) (*cacheEntry, bool) { return oldestUnpinned(r), true }

//gflink:hotpath
func (stopPolicy) Remove(r *cacheRegion, e *cacheEntry) { r.unlink(e) }

// lruPolicy evicts the least-recently-used entry: a hit moves the
// entry to the back of the eviction list, so constantly reused blocks
// survive capacity pressure that cycles colder blocks through the
// region — the classic gap over FIFO under reuse-heavy iteration.
type lruPolicy struct{}

func (lruPolicy) Name() string { return "lru" }

//gflink:hotpath
func (lruPolicy) Admit(r *cacheRegion, e *cacheEntry) { r.pushBack(e) }

//gflink:hotpath
func (lruPolicy) Touch(r *cacheRegion, e *cacheEntry) {
	r.unlink(e)
	r.pushBack(e)
}

//gflink:hotpath
func (lruPolicy) Victim(r *cacheRegion) (*cacheEntry, bool) { return oldestUnpinned(r), false }

//gflink:hotpath
func (lruPolicy) Remove(r *cacheRegion, e *cacheEntry) { r.unlink(e) }
