package core

// The intrusive eviction list: entries double as list nodes (prev/next
// fields), so eviction bookkeeping allocates nothing — entry shells
// ride the manager's free list and the list operations below are pure
// pointer swaps, keeping the hit path allocation-free (invariant 10;
// TestCacheAllocatesNothing).
// Every policy appends an admitted entry at the back and evicts the
// oldest unpinned entry from the front; LRU moves a hit entry to the
// back, and stop-when-full refuses to evict to admit.

// entryList is an intrusive list of entries, oldest first: a region's
// eviction list, and the host tier's resident and spilled page lists.
type entryList struct{ head, tail *cacheEntry }

// pushBack appends e as the newest entry of l.
func (l *entryList) pushBack(e *cacheEntry) {
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

// unlink removes e from l.
func (l *entryList) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// oldestUnpinned walks the eviction list front to back and returns the
// first entry with no in-flight references: the next victim, or nil
// when every entry is pinned.
func oldestUnpinned(r *cacheRegion) *cacheEntry {
	for e := r.head; e != nil; e = e.next {
		if e.refs == 0 {
			return e
		}
	}
	return nil
}
